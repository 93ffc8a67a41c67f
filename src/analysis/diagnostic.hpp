// Structured audit findings.
//
// Every invariant violation the analysis layer detects becomes one
// Diagnostic record: which invariant, when (simulated time), on what subject
// (a socket, a cpu, an MSR address), the offending value and the bound it
// broke. Tools print them; tests assert on exact (invariant, count) pairs.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace hsw::analysis {

/// The invariant catalog. One enumerator per model property the checker
/// audits; tests produce exactly one class of these per violation scenario.
enum class Invariant {
    TimeMonotonic,     // trace/event stream timestamps never go backwards
    EnergyCounter,     // RAPL energy counters non-decreasing modulo 2^32 wrap
    PackagePower,      // package power within [idle floor, TDP + margin]
    CoreFrequency,     // granted core clock inside the SKU's p-state range
    AvxLicense,        // licensed core above its AVX turbo bin
    UncoreFrequency,   // uncore clock outside the UFS (or MSR-clamped) bounds
    PstateGrid,        // grant outside the ~500 us opportunity grid semantics
    Residency,         // C-state residency regressed or exceeds wall time
    MsrAccess,         // unknown MSR, write to read-only, or oversized value
    EngineJob,         // experiment-engine job retried or failed permanently
};

[[nodiscard]] std::string_view name(Invariant i);

enum class Severity { Warning, Violation };

struct Diagnostic {
    Invariant invariant = Invariant::TimeMonotonic;
    Severity severity = Severity::Violation;
    util::Time when;
    std::string subject;  // e.g. "socket0.pkg", "cpu3", "msr 0x611"
    std::string message;  // human-readable description
    double value = 0.0;   // offending quantity (unit depends on invariant)
    double bound = 0.0;   // the bound it violated

    /// One-line rendering: "[  123.456 us] energy-counter socket0.pkg: ...".
    [[nodiscard]] std::string format() const;
};

/// Bounded collector for diagnostics. Keeps the first `capacity` records
/// verbatim (a broken invariant usually repeats every sample; the first
/// occurrences carry the signal) but counts everything.
class DiagnosticSink {
public:
    explicit DiagnosticSink(std::size_t capacity = 256) : capacity_{capacity} {}

    void report(Diagnostic d);

    [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const { return diags_; }
    [[nodiscard]] bool empty() const { return total_ == 0; }
    /// All diagnostics ever reported, including ones dropped beyond capacity.
    [[nodiscard]] std::size_t total() const { return total_; }
    /// Reported diagnostics of one invariant class (capped at capacity).
    [[nodiscard]] std::size_t count(Invariant i) const;

    void clear();

    /// Multi-line report: per-invariant totals followed by the retained
    /// records. Empty string when clean.
    [[nodiscard]] std::string summary() const;

private:
    std::size_t capacity_;
    std::size_t total_ = 0;
    std::vector<Diagnostic> diags_;
};

}  // namespace hsw::analysis
