#include <gtest/gtest.h>

#include "power/power_model.hpp"
#include "power/psu.hpp"

namespace hsw::power {
namespace {

using util::Bandwidth;
using util::Frequency;
using util::Power;
using util::Voltage;

TEST(PowerModel, GatedCoreConsumesNothing) {
    const CoreActivity gated{.cdyn_utilization = 1.0, .clock_running = false,
                             .power_gated = true};
    EXPECT_EQ(core_power(gated, Voltage::volts(1.0), Frequency::ghz(2.5)).as_watts(), 0.0);
}

TEST(PowerModel, IdleCoreLeaksOnly) {
    const CoreActivity idle{.cdyn_utilization = 0.0, .clock_running = false,
                            .power_gated = false};
    const double leak = core_power(idle, Voltage::volts(0.9), Frequency::ghz(2.5)).as_watts();
    EXPECT_GT(leak, 0.0);
    EXPECT_LT(leak, 1.0);
    // Leakage scales with V^2, not with frequency.
    EXPECT_DOUBLE_EQ(
        core_power(idle, Voltage::volts(0.9), Frequency::ghz(1.2)).as_watts(), leak);
}

TEST(PowerModel, DynamicPowerScalesWithV2F) {
    const CoreActivity busy{.cdyn_utilization = 1.0, .clock_running = true,
                            .power_gated = false};
    const CoreActivity idle{.cdyn_utilization = 0.0, .clock_running = false,
                            .power_gated = false};
    auto dyn = [&](double v, double f) {
        return core_power(busy, Voltage::volts(v), Frequency::ghz(f)).as_watts() -
               core_power(idle, Voltage::volts(v), Frequency::ghz(f)).as_watts();
    };
    // Doubling frequency doubles dynamic power.
    EXPECT_NEAR(dyn(1.0, 2.0), 2.0 * dyn(1.0, 1.0), 1e-9);
    // Doubling voltage quadruples dynamic power.
    EXPECT_NEAR(dyn(1.0, 2.0), 4.0 * dyn(0.5, 2.0), 1e-9);
}

TEST(PowerModel, UncorePowerHasIdleFloor) {
    const double idle = uncore_power(0.0, Voltage::volts(0.9), Frequency::ghz(3.0)).as_watts();
    const double full = uncore_power(1.0, Voltage::volts(0.9), Frequency::ghz(3.0)).as_watts();
    EXPECT_GT(idle, 0.0);
    EXPECT_GT(full, idle);
    EXPECT_LT(idle, full * 0.5);
    // Utilization clamps.
    EXPECT_DOUBLE_EQ(
        uncore_power(2.0, Voltage::volts(0.9), Frequency::ghz(3.0)).as_watts(), full);
    EXPECT_DOUBLE_EQ(
        uncore_power(-1.0, Voltage::volts(0.9), Frequency::ghz(3.0)).as_watts(), idle);
}

TEST(PowerModel, DramPowerBackgroundPlusBandwidth) {
    const double idle = dram_power(Bandwidth::gb_per_sec(0)).as_watts();
    const double busy = dram_power(Bandwidth::gb_per_sec(50)).as_watts();
    EXPECT_GT(idle, 3.0);
    EXPECT_NEAR(busy - idle, 0.35 * 50, 1e-9);
}

TEST(AcModel, HaswellMatchesPaperQuadratic) {
    // Footnote 2: P_AC = 0.0003 R^2 + 1.097 R + 225.7.
    const NodeAcModel ac{arch::Generation::HaswellEP};
    EXPECT_NEAR(ac.ac_power(Power::watts(0)).as_watts(), 225.7, 1e-9);
    EXPECT_NEAR(ac.ac_power(Power::watts(100)).as_watts(),
                0.0003 * 1e4 + 1.097 * 100 + 225.7, 1e-9);
    EXPECT_NEAR(ac.ac_power(Power::watts(283)).as_watts(), 560.0, 2.0);
}

TEST(AcModel, InverseRoundTrips) {
    const NodeAcModel ac{arch::Generation::HaswellEP};
    for (double r = 20; r <= 300; r += 40) {
        const Power fwd = ac.ac_power(Power::watts(r));
        EXPECT_NEAR(ac.rapl_power_for_ac(fwd).as_watts(), r, 1e-6);
    }
}

TEST(AcModel, SandyBridgeNodeHasLowerOverhead) {
    const NodeAcModel snb{arch::Generation::SandyBridgeEP};
    const NodeAcModel hsw{arch::Generation::HaswellEP};
    EXPECT_LT(snb.ac_power(Power::watts(0)).as_watts(),
              hsw.ac_power(Power::watts(0)).as_watts());
}

}  // namespace
}  // namespace hsw::power
