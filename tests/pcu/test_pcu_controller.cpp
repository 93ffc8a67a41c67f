#include <gtest/gtest.h>

#include "arch/sku.hpp"
#include "pcu/hwp.hpp"
#include "pcu/pcu.hpp"
#include "platform/registry.hpp"
#include "util/rng.hpp"

#include <numeric>
#include <vector>

namespace hsw::pcu {
namespace {

using util::Frequency;
using util::Power;
using util::Time;

/// All cores in C0 running a FIRESTARTER-like profile.
PcuInputs firestarter_inputs(unsigned requested_ratio) {
    PcuInputs in;
    in.cores.resize(12);
    for (auto& c : in.cores) {
        c.state = cstates::CState::C0;
        c.requested_ratio = requested_ratio;
        c.avx_fraction = 0.95;
        c.stall_fraction = 0.06;
        c.cdyn_utilization = 1.0;
    }
    in.uncore_traffic = 1.0;
    in.current_intensity = 0.85;
    in.fastest_system_core = Frequency::ghz(2.5);
    return in;
}

/// Run the controller to steady state (several opportunity ticks) and
/// average the dithered output.
struct SteadyState {
    double core_ghz;
    double uncore_ghz;
    double watts;
    bool tdp_limited;
};

SteadyState settle(PcuController& pcu, const PcuInputs& in, int ticks = 200) {
    double core = 0;
    double unc = 0;
    double watts = 0;
    bool limited = false;
    Time t = Time::zero();
    for (int i = 0; i < ticks; ++i) {
        t += Time::us(500);
        const auto out = pcu.evaluate(in, t);
        core += out.cores[0].frequency.as_ghz();
        unc += out.uncore_frequency.as_ghz();
        watts += out.estimated_package_power.as_watts();
        limited = out.tdp_limited;
    }
    return SteadyState{core / ticks, unc / ticks, watts / ticks, limited};
}

TEST(PcuController, TurboEquilibriumMatchesTable4) {
    PcuController pcu{arch::xeon_e5_2680_v3(), 1};
    const auto s = settle(pcu, firestarter_inputs(26));
    EXPECT_TRUE(s.tdp_limited);
    EXPECT_NEAR(s.core_ghz, 2.32, 0.06);     // paper: 2.30-2.32 (P1)
    EXPECT_NEAR(s.uncore_ghz, 2.35, 0.08);   // paper: 2.33-2.37
    EXPECT_NEAR(s.watts, 120.0, 0.8);        // average power == TDP
}

TEST(PcuController, AveragePowerNeverExceedsBudgetByMuch) {
    PcuController pcu{arch::xeon_e5_2680_v3(), 0};
    for (unsigned ratio : {26u, 25u, 23u, 22u, 21u}) {
        PcuController fresh{arch::xeon_e5_2680_v3(), 0};
        const auto s = settle(fresh, firestarter_inputs(ratio));
        EXPECT_LE(s.watts, 120.5) << "ratio " << ratio;
    }
}

TEST(PcuController, LowSettingFreesBudgetForUncore) {
    // Table IV: at the 2.2 GHz setting the uncore rises to ~2.8-2.9 GHz;
    // at 2.1 GHz it reaches 3.0 with power below TDP.
    PcuController pcu22{arch::xeon_e5_2680_v3(), 1};
    const auto s22 = settle(pcu22, firestarter_inputs(22));
    EXPECT_NEAR(s22.core_ghz, 2.2, 0.01);
    EXPECT_GT(s22.uncore_ghz, 2.6);
    EXPECT_LT(s22.uncore_ghz, 3.0);

    PcuController pcu21{arch::xeon_e5_2680_v3(), 1};
    const auto s21 = settle(pcu21, firestarter_inputs(21));
    EXPECT_NEAR(s21.core_ghz, 2.1, 0.01);
    EXPECT_NEAR(s21.uncore_ghz, 3.0, 0.01);
    EXPECT_LT(s21.watts, 120.0);
}

TEST(PcuController, Socket0RunsSlowerThanSocket1) {
    // Section III: socket 0 needs more voltage, so it sustains less turbo.
    PcuController p0{arch::xeon_e5_2680_v3(), 0};
    PcuController p1{arch::xeon_e5_2680_v3(), 1};
    const auto s0 = settle(p0, firestarter_inputs(26));
    const auto s1 = settle(p1, firestarter_inputs(26));
    EXPECT_LT(s0.core_ghz, s1.core_ghz);
}

TEST(PcuController, GuaranteedFloorIsAvxBase) {
    // Even under an absurd power cap the cores never fall below the AVX
    // base frequency (2.1 GHz) -- that is the guaranteed level.
    PcuInputs in = firestarter_inputs(26);
    in.power_limit_watts = 30.0;
    PcuController pcu{arch::xeon_e5_2680_v3(), 1};
    const auto out = pcu.evaluate(in, Time::us(500));
    for (const auto& g : out.cores) {
        EXPECT_GE(g.frequency.as_ghz(), 2.1 - 1e-9);
    }
}

TEST(PcuController, PowerLimitMsrTightensBudget) {
    PcuInputs in = firestarter_inputs(26);
    PcuController unlimited{arch::xeon_e5_2680_v3(), 1};
    const auto s_unlimited = settle(unlimited, in);
    in.power_limit_watts = 105.0;
    PcuController capped{arch::xeon_e5_2680_v3(), 1};
    const auto s_capped = settle(capped, in);
    EXPECT_LT(s_capped.core_ghz, s_unlimited.core_ghz);
    EXPECT_LE(s_capped.watts, 105.5);
}

TEST(PcuController, IdleSocketParksAndHaltsUncore) {
    PcuInputs in;
    in.cores.resize(12);  // all C6 by default
    in.system_active = false;
    in.fastest_system_core = Frequency::zero();
    PcuController pcu{arch::xeon_e5_2680_v3(), 0};
    const auto out = pcu.evaluate(in, Time::us(500));
    EXPECT_TRUE(out.uncore_clock_halted);
    EXPECT_LT(out.estimated_package_power.as_watts(), 15.0);
}

TEST(PcuController, PassiveSocketTracksSystemFastestCore) {
    PcuInputs in;
    in.cores.resize(12);
    in.system_active = true;  // the *other* socket is busy
    in.fastest_system_core = Frequency::ghz(2.0);
    PcuController pcu{arch::xeon_e5_2680_v3(), 1};
    const auto out = pcu.evaluate(in, Time::us(500));
    EXPECT_FALSE(out.uncore_clock_halted);
    EXPECT_NEAR(out.uncore_frequency.as_ghz(), 1.65, 1e-6);  // ladder - 0.1
}

TEST(PcuController, PerCorePstatesGrantDifferentFrequencies) {
    // PCPS: two cores request different p-states and actually get them.
    PcuInputs in;
    in.cores.resize(12);
    in.cores[0].state = cstates::CState::C0;
    in.cores[0].requested_ratio = 24;
    in.cores[0].cdyn_utilization = 0.4;
    in.cores[3].state = cstates::CState::C0;
    in.cores[3].requested_ratio = 13;
    in.cores[3].cdyn_utilization = 0.4;
    in.fastest_system_core = Frequency::ghz(2.4);
    PcuController pcu{arch::xeon_e5_2680_v3(), 0};
    const auto out = pcu.evaluate(in, Time::us(500));
    EXPECT_DOUBLE_EQ(out.cores[0].frequency.as_ghz(), 2.4);
    EXPECT_DOUBLE_EQ(out.cores[3].frequency.as_ghz(), 1.3);
}

TEST(PcuController, MemoryBoundTurboDemotedByEet) {
    PcuInputs in;
    in.cores.resize(12);
    for (auto& c : in.cores) {
        c.state = cstates::CState::C0;
        c.requested_ratio = 26;  // turbo
        c.stall_fraction = 0.8;  // memory bound
        c.cdyn_utilization = 0.5;
    }
    in.uncore_traffic = 1.0;
    in.epb = msr::EpbPolicy::Balanced;
    in.fastest_system_core = Frequency::ghz(2.5);
    PcuController pcu{arch::xeon_e5_2680_v3(), 1};
    const auto out = pcu.evaluate(in, Time::us(500));
    // EET strips the turbo range; UFS drives the uncore toward max.
    EXPECT_LE(out.cores[0].frequency.as_ghz(), 2.5);
    EXPECT_GT(out.uncore_frequency.as_ghz(), 2.5);
}

/// Random inputs for one tick: a mix of C0/C1/C6 cores with varying
/// activity and AVX densities, optionally under a RAPL package limit.
PcuInputs random_inputs(util::Rng& rng, const arch::Sku& sku, bool hwp, bool power_limit) {
    constexpr cstates::CState kStates[] = {cstates::CState::C0, cstates::CState::C0,
                                           cstates::CState::C1, cstates::CState::C6};
    PcuInputs in;
    in.cores.resize(sku.cores);
    const unsigned lo = sku.min_frequency.ratio();
    const unsigned hi = sku.nominal_frequency.ratio() + 1;  // turbo request
    for (auto& c : in.cores) {
        c.state = kStates[rng.uniform_u64(4)];
        c.requested_ratio = lo + static_cast<unsigned>(rng.uniform_u64(hi - lo + 1));
        c.avx_fraction = rng.uniform() < 0.5 ? 0.95 : rng.uniform(0.0, 0.3);
        c.avx512_fraction = rng.uniform() < 0.5 ? rng.uniform(0.0, 0.9) : 0.0;
        c.stall_fraction = rng.uniform(0.0, 0.8);
        c.cdyn_utilization = rng.uniform(0.1, 1.1);
        if (hwp) {
            c.hwp_request_raw = encode_hwp_request(
                HwpRequest{.epp = static_cast<unsigned>(rng.uniform_u64(256))});
        }
    }
    in.uncore_traffic = rng.uniform();
    in.current_intensity = rng.uniform();
    in.fastest_system_core = Frequency::from_ratio(hi);
    in.hwp_enabled = hwp;
    if (power_limit) in.power_limit_watts = rng.uniform(0.4, 1.0) * sku.tdp.as_watts();
    return in;
}

// The budget loop sums memoized per-core terms; its reported estimate must
// equal the unmemoized reference bit for bit, on every generation's policy
// and across consecutive ticks (the memo lives for one evaluation only).
TEST(PcuController, EstimateMatchesEvaluateOutput) {
    struct Case {
        arch::Generation generation;
        bool hwp;
    };
    for (const Case& k : {Case{arch::Generation::HaswellEP, false},
                          Case{arch::Generation::SandyBridgeEP, false},
                          Case{arch::Generation::SkylakeSP, true}}) {
        const auto& backend = platform::backend_for(k.generation);
        for (const bool power_limit : {false, true}) {
            PcuController pcu{backend.survey_sku(), 1, &backend.pcu_policy()};
            util::Rng rng{0xE57 + static_cast<std::uint64_t>(k.generation) * 2 +
                          (power_limit ? 1 : 0)};
            Time t = Time::zero();
            for (int tick = 0; tick < 300; ++tick) {
                t += Time::us(500);
                const PcuInputs in =
                    random_inputs(rng, backend.survey_sku(), k.hwp, power_limit);
                const auto out = pcu.evaluate(in, t);
                std::vector<unsigned> ratios;
                for (const auto& g : out.cores) ratios.push_back(g.frequency.ratio());
                const Power re = pcu.estimate_package_power(in, ratios, out.uncore_frequency);
                ASSERT_EQ(re.as_watts(), out.estimated_package_power.as_watts())
                    << backend.name() << " limit=" << power_limit << " tick " << tick;
            }
        }
    }
}

}  // namespace
}  // namespace hsw::pcu
