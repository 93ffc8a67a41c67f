#include "survey/skx_hwp.hpp"

#include <vector>

#include "analysis/invariant_checker.hpp"
#include "arch/generation.hpp"
#include "core/node.hpp"
#include "msr/addresses.hpp"
#include "pcu/hwp.hpp"
#include "platform/registry.hpp"
#include "util/table.hpp"
#include "workloads/mixes.hpp"

namespace hsw::survey {

namespace {

core::NodeConfig skx_node_config(const SkxSweepConfig& cfg) {
    core::NodeConfig ncfg;
    ncfg.seed = cfg.seed;
    ncfg.sku = &platform::backend_for(arch::Generation::SkylakeSP).survey_sku();
    return ncfg;
}

struct WindowSample {
    double core_ghz = 0.0;
    double uncore_ghz = 0.0;
    double pkg_watts = 0.0;
};

/// Mean cpu-0 frequency over the window from APERF/MPERF deltas (reliable,
/// unlike the request register, which echoes the target), plus socket-0 RAPL
/// package power and the instantaneous uncore clock at the window's end.
WindowSample measure_window(core::Node& node, util::Time window) {
    const auto a0 = node.msrs().read(0, msr::IA32_APERF);
    const auto m0 = node.msrs().read(0, msr::IA32_MPERF);
    const auto w = node.rapl_window(0, window);
    const auto da = static_cast<double>(node.msrs().read(0, msr::IA32_APERF) - a0);
    const auto dm = static_cast<double>(node.msrs().read(0, msr::IA32_MPERF) - m0);
    WindowSample s;
    s.core_ghz = dm > 0.0 ? node.sku().nominal_frequency.as_ghz() * da / dm : 0.0;
    s.uncore_ghz = node.uncore_frequency(0).as_ghz();
    s.pkg_watts = w.package.as_watts();
    return s;
}

}  // namespace

std::string HwpEppResult::render() const {
    util::Table t{"Skylake-SP HWP: EPP ladder under FIRESTARTER (autonomous request)"};
    t.set_header({"EPP", "core [GHz]", "uncore [GHz]", "RAPL pkg [W]"});
    for (const auto& p : points) {
        t.add_row({std::to_string(p.epp), util::Table::fmt(p.core_ghz, 2),
                   util::Table::fmt(p.uncore_ghz, 2),
                   util::Table::fmt(p.rapl_pkg_watts, 1)});
    }
    return t.render();
}

HwpEppResult skx_hwp_epp(const SkxSweepConfig& cfg) {
    core::Node node{skx_node_config(cfg)};
    analysis::InvariantChecker checker{cfg.audit};
    checker.attach(node);

    node.set_all_workloads(&workloads::firestarter(), 2);
    node.enable_hwp();

    HwpEppResult result;
    const unsigned ladder[] = {0, 32, 64, 96, 128, 160, 192, 224, 255};
    for (unsigned epp : ladder) {
        pcu::HwpRequest req;  // min/max/desired = 0: fully autonomous
        req.epp = epp;
        node.set_hwp_request_all(req);
        node.run_for(cfg.settle);
        const auto s = measure_window(node, cfg.window);
        result.points.push_back(HwpEppPoint{epp, s.core_ghz, s.uncore_ghz, s.pkg_watts});
    }
    checker.finish();
    return result;
}

std::string Avx512LicenseResult::render() const {
    util::Table t{"Skylake-SP AVX-512 license levels vs 512-bit density (turbo request)"};
    t.set_header({"avx512 fraction", "license", "core [GHz]", "RAPL pkg [W]"});
    for (const auto& p : points) {
        t.add_row({util::Table::fmt(p.avx512_fraction, 2),
                   std::to_string(p.license_level), util::Table::fmt(p.core_ghz, 2),
                   util::Table::fmt(p.rapl_pkg_watts, 1)});
    }
    return t.render();
}

Avx512LicenseResult skx_avx512_license(const SkxSweepConfig& cfg) {
    const double fracs[] = {0.0, 0.05, 0.2, 0.5, 1.0};

    // FIRESTARTER variants with increasing 512-bit density. The vector is
    // declared before the node so the workload pointers outlive it.
    std::vector<workloads::Workload> variants;
    variants.reserve(std::size(fracs));
    for (double f : fracs) {
        workloads::Workload w = workloads::firestarter();
        w.avx512_fraction = f;
        variants.push_back(w);
    }

    core::Node node{skx_node_config(cfg)};
    analysis::InvariantChecker checker{cfg.audit};
    checker.attach(node);

    Avx512LicenseResult result;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        node.set_all_workloads(&variants[i], 2);
        node.request_turbo_all();
        node.run_for(cfg.settle);
        const auto s = measure_window(node, cfg.window);
        result.points.push_back(Avx512LicensePoint{
            fracs[i], node.socket(0).cores()[0].license_level, s.core_ghz,
            s.pkg_watts});
    }
    checker.finish();
    return result;
}

}  // namespace hsw::survey
