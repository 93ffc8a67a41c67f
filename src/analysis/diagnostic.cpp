#include "analysis/diagnostic.hpp"

#include <array>
#include <cstdio>

namespace hsw::analysis {

std::string_view name(Invariant i) {
    switch (i) {
        case Invariant::TimeMonotonic: return "time-monotonic";
        case Invariant::EnergyCounter: return "energy-counter";
        case Invariant::PackagePower: return "package-power";
        case Invariant::CoreFrequency: return "core-frequency";
        case Invariant::AvxLicense: return "avx-license";
        case Invariant::UncoreFrequency: return "uncore-frequency";
        case Invariant::PstateGrid: return "pstate-grid";
        case Invariant::Residency: return "residency";
        case Invariant::MsrAccess: return "msr-access";
        case Invariant::EngineJob: return "engine-job";
    }
    return "?";
}

std::string Diagnostic::format() const {
    char buf[384];
    std::snprintf(buf, sizeof buf, "[%12.3f us] %s %-16s %s: %s (value %.6g, bound %.6g)",
                  when.as_us(), severity == Severity::Violation ? "VIOLATION" : "warning",
                  std::string{name(invariant)}.c_str(), subject.c_str(), message.c_str(),
                  value, bound);
    return buf;
}

void DiagnosticSink::report(Diagnostic d) {
    ++total_;
    if (diags_.size() < capacity_) diags_.push_back(std::move(d));
}

std::size_t DiagnosticSink::count(Invariant i) const {
    std::size_t n = 0;
    for (const auto& d : diags_) {
        if (d.invariant == i) ++n;
    }
    return n;
}

void DiagnosticSink::clear() {
    total_ = 0;
    diags_.clear();
}

std::string DiagnosticSink::summary() const {
    if (empty()) return {};
    constexpr std::array<Invariant, 10> kAll = {
        Invariant::TimeMonotonic, Invariant::EnergyCounter,  Invariant::PackagePower,
        Invariant::CoreFrequency, Invariant::AvxLicense,     Invariant::UncoreFrequency,
        Invariant::PstateGrid,    Invariant::Residency,      Invariant::MsrAccess,
        Invariant::EngineJob,
    };
    std::string out;
    char buf[128];
    std::snprintf(buf, sizeof buf, "invariant audit: %zu diagnostic(s)", total_);
    out += buf;
    if (total_ > diags_.size()) {
        std::snprintf(buf, sizeof buf, " (%zu retained)", diags_.size());
        out += buf;
    }
    out += "\n";
    for (Invariant i : kAll) {
        const std::size_t n = count(i);
        if (n == 0) continue;
        std::snprintf(buf, sizeof buf, "  %-16s %zu\n", std::string{name(i)}.c_str(), n);
        out += buf;
    }
    for (const auto& d : diags_) {
        out += "  ";
        out += d.format();
        out += "\n";
    }
    return out;
}

}  // namespace hsw::analysis
