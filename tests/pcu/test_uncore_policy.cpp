#include <gtest/gtest.h>

#include "arch/sku.hpp"
#include "pcu/uncore_scaling.hpp"

#include <cstdint>

namespace hsw::pcu {
namespace {

using util::Frequency;

UfsInputs base_inputs() {
    UfsInputs in;
    in.sku = &arch::xeon_e5_2680_v3();
    in.epb = msr::EpbPolicy::Balanced;
    in.socket_active = true;
    in.system_active = true;
    return in;
}

// --- The Table III ladder, parameterized over every row. ---
// The ratio is 64-bit so the row has no padding: gtest names each case by
// dumping the row's bytes, and padding would put leftover heap contents into
// the test name.
struct LadderRow {
    std::uint64_t core_ratio;
    double uncore_ghz;
};
static_assert(sizeof(LadderRow) == sizeof(std::uint64_t) + sizeof(double));

class LadderSweep : public ::testing::TestWithParam<LadderRow> {};

TEST_P(LadderSweep, MatchesTable3) {
    const auto [ratio, expected] = GetParam();
    EXPECT_NEAR(ladder_frequency(static_cast<unsigned>(ratio)).as_ghz(), expected, 1e-9)
        << "ratio " << ratio;
}

INSTANTIATE_TEST_SUITE_P(
    Table3Rows, LadderSweep,
    ::testing::Values(LadderRow{25, 2.2}, LadderRow{24, 2.1}, LadderRow{23, 2.0},
                      LadderRow{22, 1.9}, LadderRow{21, 1.8}, LadderRow{20, 1.75},
                      LadderRow{19, 1.65}, LadderRow{18, 1.6}, LadderRow{17, 1.5},
                      LadderRow{16, 1.4}, LadderRow{15, 1.3}, LadderRow{14, 1.2},
                      LadderRow{13, 1.2}, LadderRow{12, 1.2}));

TEST(Ladder, ClampsOutsideRange) {
    EXPECT_NEAR(ladder_frequency(33).as_ghz(), 2.2, 1e-9);  // above nominal
    EXPECT_NEAR(ladder_frequency(5).as_ghz(), 1.2, 1e-9);   // below minimum
}

// --- Policy regimes ---

TEST(UfsPolicy, NoStallFollowsLadder) {
    UfsInputs in = base_inputs();
    in.stall_fraction = 0.0;
    in.fastest_local_core = Frequency::ghz(2.0);
    const auto d = uncore_policy(in);
    EXPECT_FALSE(d.clock_halted);
    EXPECT_NEAR(d.target.as_ghz(), 1.75, 1e-9);
    EXPECT_NEAR(d.floor.as_ghz(), 1.75, 1e-9);
}

TEST(UfsPolicy, TurboRequestTargetsMaximum) {
    UfsInputs in = base_inputs();
    in.stall_fraction = 0.0;
    in.turbo_requested = true;
    in.fastest_local_core = Frequency::ghz(3.0);
    const auto d = uncore_policy(in);
    EXPECT_NEAR(d.target.as_ghz(), 3.0, 1e-9);
    EXPECT_LE(d.floor.as_ghz(), 2.2);  // ladder floor, cores keep priority
}

TEST(UfsPolicy, ModerateStallsTrackTheCore) {
    UfsInputs in = base_inputs();
    in.stall_fraction = 0.10;
    in.fastest_local_core = Frequency::ghz(2.3);
    const auto d = uncore_policy(in);
    EXPECT_NEAR(d.floor.as_ghz(), 2.3, 1e-9);
    EXPECT_NEAR(d.target.as_ghz(), 3.0, 1e-9);
}

TEST(UfsPolicy, HighStallsDemandMaximum) {
    UfsInputs in = base_inputs();
    in.stall_fraction = 0.8;
    in.fastest_local_core = Frequency::ghz(1.2);
    const auto d = uncore_policy(in);
    EXPECT_NEAR(d.target.as_ghz(), 3.0, 1e-9);
    EXPECT_NEAR(d.floor.as_ghz(), 1.2, 1e-9);
}

TEST(UfsPolicy, EpbPerformancePinsTarget) {
    UfsInputs in = base_inputs();
    in.epb = msr::EpbPolicy::Performance;
    in.stall_fraction = 0.0;
    in.fastest_local_core = Frequency::ghz(1.5);
    const auto d = uncore_policy(in);
    EXPECT_NEAR(d.target.as_ghz(), 3.0, 1e-9);
}

TEST(UfsPolicy, PassiveSocketOneStepLower) {
    // Table III second row: the passive processor's uncore runs one
    // 100 MHz step below the active one's ladder value.
    UfsInputs in = base_inputs();
    in.socket_active = false;
    in.fastest_system_core = Frequency::ghz(2.0);  // active ladder -> 1.75
    const auto d = uncore_policy(in);
    EXPECT_NEAR(d.target.as_ghz(), 1.65, 1e-9);
}

TEST(UfsPolicy, PassiveSocketFloorsAtMinimum) {
    UfsInputs in = base_inputs();
    in.socket_active = false;
    in.fastest_system_core = Frequency::ghz(1.2);  // ladder 1.2, -0.1 clamps
    const auto d = uncore_policy(in);
    EXPECT_NEAR(d.target.as_ghz(), 1.2, 1e-9);
}

TEST(UfsPolicy, FullyIdleSystemHaltsUncoreClock) {
    // Section V-A: the uncore clock is halted in deep package sleep.
    UfsInputs in = base_inputs();
    in.socket_active = false;
    in.system_active = false;
    const auto d = uncore_policy(in);
    EXPECT_TRUE(d.clock_halted);
}

TEST(UfsPolicy, SandyBridgeCouplesUncoreToCore) {
    UfsInputs in = base_inputs();
    in.sku = &arch::xeon_e5_2670();
    in.stall_fraction = 0.8;  // irrelevant pre-Haswell
    in.fastest_local_core = Frequency::ghz(1.8);
    const auto d = uncore_policy(in);
    EXPECT_NEAR(d.target.as_ghz(), 1.8, 1e-9);
    EXPECT_NEAR(d.floor.as_ghz(), 1.8, 1e-9);
}

TEST(UfsPolicy, WestmereUncoreFixed) {
    UfsInputs in = base_inputs();
    in.sku = &arch::xeon_x5670();
    in.fastest_local_core = Frequency::ghz(1.6);
    const auto d = uncore_policy(in);
    EXPECT_NEAR(d.target.as_ghz(), 2.66, 1e-2);
}

}  // namespace
}  // namespace hsw::pcu
