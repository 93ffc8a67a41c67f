// Skylake-SP platform backend end-to-end: HWP MSR surface, EPP steering,
// AVX-512 license levels and per-die uncore grants on a Gold 6150 node
// (Schoene et al.), plus the negative space -- none of it may leak onto the
// Haswell-EP test system.
#include <gtest/gtest.h>

#include "core/node.hpp"
#include "msr/msr_file.hpp"
#include "pcu/hwp.hpp"
#include "platform/registry.hpp"
#include "workloads/mixes.hpp"

namespace hsw {
namespace {

using util::Frequency;
using util::Time;

core::NodeConfig skx_config() {
    core::NodeConfig cfg;
    cfg.sku = &platform::backend_for(arch::Generation::SkylakeSP).survey_sku();
    return cfg;
}

/// Mean cpu-0 clock over a window, from APERF/MPERF deltas (the paper's
/// Section VI-A: scaling_cur_freq is just the last request).
double mean_ghz(core::Node& node, Time window) {
    const auto a0 = node.msrs().read(0, msr::IA32_APERF);
    const auto m0 = node.msrs().read(0, msr::IA32_MPERF);
    node.run_for(window);
    const auto da = static_cast<double>(node.msrs().read(0, msr::IA32_APERF) - a0);
    const auto dm = static_cast<double>(node.msrs().read(0, msr::IA32_MPERF) - m0);
    return dm > 0.0 ? node.sku().nominal_frequency.as_ghz() * da / dm : 0.0;
}

TEST(SkylakeSp, HwpMsrSurfaceIsInstalled) {
    core::Node node{skx_config()};
    EXPECT_EQ(node.msrs().read(0, msr::MSR_PM_ENABLE), 0u);
    const auto caps =
        pcu::decode_hwp_capabilities(node.msrs().read(0, msr::IA32_HWP_CAPABILITIES));
    const auto expect = pcu::capabilities_for(node.sku());
    EXPECT_EQ(caps.highest, expect.highest);
    EXPECT_EQ(caps.guaranteed, expect.guaranteed);
    EXPECT_EQ(caps.most_efficient, expect.most_efficient);
    EXPECT_EQ(caps.lowest, expect.lowest);
    EXPECT_EQ(node.msrs().read(0, msr::IA32_HWP_STATUS), 0u);
}

TEST(SkylakeSp, HwpRequestIsOptInAndReadsBack) {
    core::Node node{skx_config()};
    ASSERT_TRUE(node.hwp_capable());
    EXPECT_EQ(node.msrs().read(0, msr::MSR_PM_ENABLE) & 1, 0u)
        << "HWP is opt-in via MSR_PM_ENABLE";

    // Once enabled, a desired ratio written through the node reads back
    // from IA32_HWP_REQUEST.
    node.enable_hwp();
    ASSERT_EQ(node.msrs().read(0, msr::MSR_PM_ENABLE), 1u);
    pcu::HwpRequest req;
    req.desired_ratio = node.sku().nominal_frequency.ratio();
    node.set_hwp_request(0, req);
    EXPECT_EQ(pcu::decode_hwp_request(node.msrs().read(0, msr::IA32_HWP_REQUEST))
                  .desired_ratio,
              req.desired_ratio);
}

TEST(SkylakeSp, HwpMsrsFaultOnHaswell) {
    core::NodeConfig cfg;  // default SKU: the Haswell-EP test system
    core::Node node{cfg};
    ASSERT_FALSE(node.hwp_capable());
    EXPECT_THROW((void)node.msrs().read(0, msr::MSR_PM_ENABLE), msr::MsrError);
    EXPECT_THROW((void)node.msrs().read(0, msr::IA32_HWP_REQUEST), msr::MsrError);
    EXPECT_THROW(node.msrs().write(0, msr::IA32_HWP_REQUEST, 0), msr::MsrError);
}

TEST(SkylakeSp, EppSteersTheAutonomousOperatingPoint) {
    core::Node node{skx_config()};
    node.set_all_workloads(&workloads::firestarter(), 2);
    node.enable_hwp();
    EXPECT_EQ(node.msrs().read(0, msr::MSR_PM_ENABLE), 1u);

    pcu::HwpRequest req;  // min/max/desired = 0: fully autonomous
    req.epp = 0;
    node.set_hwp_request_all(req);
    node.run_for(Time::ms(10));
    const double perf_ghz = mean_ghz(node, Time::ms(50));

    req.epp = 255;
    node.set_hwp_request_all(req);
    node.run_for(Time::ms(10));
    const double save_ghz = mean_ghz(node, Time::ms(50));

    EXPECT_GT(perf_ghz, save_ghz + 0.3)
        << "EPP 0 must clock visibly higher than EPP 255";
    EXPECT_NEAR(save_ghz, node.sku().min_frequency.as_ghz(), 0.2);
}

TEST(SkylakeSp, Avx512WorkloadTakesLicenseTwoAndClocksLower) {
    workloads::Workload avx512 = workloads::firestarter();
    avx512.avx512_fraction = 0.5;

    core::Node node{skx_config()};
    node.set_all_workloads(&workloads::firestarter(), 2);
    node.request_turbo_all();
    node.run_for(Time::ms(10));
    const double avx_ghz = mean_ghz(node, Time::ms(50));
    const unsigned avx_level = node.socket(0).cores()[0].license_level;

    node.set_all_workloads(&avx512, 2);
    node.run_for(Time::ms(10));
    const double avx512_ghz = mean_ghz(node, Time::ms(50));
    const unsigned avx512_level = node.socket(0).cores()[0].license_level;

    EXPECT_EQ(avx_level, 1u);
    EXPECT_EQ(avx512_level, 2u);
    EXPECT_LT(avx512_ghz, avx_ghz) << "512-bit license caps the clock harder";
}

TEST(SkylakeSp, UncoreGrantsAreSplitPerDie) {
    core::Node node{skx_config()};
    node.set_all_workloads(&workloads::firestarter(), 1);
    node.run_for(Time::ms(20));
    const auto& dies = node.socket(0).die_uncore_frequencies();
    ASSERT_EQ(dies.size(), node.socket(0).topology().partitions.size());
    ASSERT_GE(dies.size(), 2u);
    for (const Frequency f : dies) {
        EXPECT_GE(f.as_ghz(), node.sku().uncore_min.as_ghz() - 1e-9);
        EXPECT_LE(f.as_ghz(), node.sku().uncore_max.as_ghz() + 1e-9);
    }
    // Haswell-EP keeps the single socket-wide UFS domain.
    core::Node hsw{core::NodeConfig{}};
    EXPECT_TRUE(hsw.socket(0).die_uncore_frequencies().empty());
}

}  // namespace
}  // namespace hsw
