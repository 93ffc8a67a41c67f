#include <gtest/gtest.h>

#include "arch/sku.hpp"
#include "pcu/policy.hpp"
#include "pcu/uncore_scaling.hpp"
#include "platform/registry.hpp"

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

// The PCU's active search leaves fastest_system_core out of its inputs and
// its replay key. That is sound only if no policy reads the field while the
// socket is active, which this sweep checks for every backend's policy.
TEST(UncorePolicy, ActiveDecisionIgnoresFastestSystemCore) {
    for (const platform::PlatformBackend* backend : platform::all_backends()) {
        const PcuPolicy& policy = backend->pcu_policy();
        const arch::Sku& sku = backend->survey_sku();
        const unsigned lo = sku.min_frequency.ratio();
        const unsigned hi = sku.max_turbo(1).ratio();
        const unsigned unc_lo = sku.uncore_min.ratio();
        const unsigned unc_hi = sku.uncore_max.ratio();
        struct Limit {
            unsigned max_ratio;
            unsigned min_ratio;
        };
        const Limit limits[] = {
            {0, 0}, {unc_hi - 2, 0}, {0, unc_lo + 3}, {unc_lo + 4, unc_lo + 2}};
        for (const auto epb : {msr::EpbPolicy::Performance, msr::EpbPolicy::Balanced,
                               msr::EpbPolicy::EnergySaving}) {
            for (const double stall : {0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.9}) {
                for (const bool turbo : {false, true}) {
                    for (unsigned local = lo; local <= hi; ++local) {
                        for (const Limit limit : limits) {
                            UfsInputs in;
                            in.sku = &sku;
                            in.epb = epb;
                            in.fastest_local_core = Frequency::from_ratio(local);
                            in.stall_fraction = stall;
                            in.socket_active = true;
                            in.system_active = true;
                            in.turbo_requested = turbo;
                            in.msr_max_ratio = limit.max_ratio;
                            in.msr_min_ratio = limit.min_ratio;
                            const UfsDecision reference = policy.uncore(in);
                            for (const unsigned system : {0u, lo, local, hi}) {
                                in.fastest_system_core = Frequency::from_ratio(system);
                                const UfsDecision d = policy.uncore(in);
                                ASSERT_EQ(d.target.as_hz(), reference.target.as_hz())
                                    << backend->name() << " local ratio " << local
                                    << " system ratio " << system;
                                ASSERT_EQ(d.floor.as_hz(), reference.floor.as_hz())
                                    << backend->name() << " local ratio " << local
                                    << " system ratio " << system;
                                ASSERT_EQ(d.clock_halted, reference.clock_halted);
                            }
                        }
                    }
                }
            }
        }
    }
}

}  // namespace
}  // namespace hsw::pcu
