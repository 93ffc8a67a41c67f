#include <gtest/gtest.h>

#include "arch/sku.hpp"
#include "core/node.hpp"
#include "pcu/hwp.hpp"
#include "pcu/pcu.hpp"
#include "platform/registry.hpp"
#include "util/rng.hpp"
#include "workloads/mixes.hpp"

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

namespace hsw::pcu {

/// Test seam: drops the controller's cross-tick carry (memoized core terms
/// and the stored search), so its next evaluation computes everything; and
/// reads how many evaluations ran, and how many of them searched.
struct PcuControllerTestPeer {
    static void clear_carry(PcuController& pcu) { pcu.clear_carry(); }
    static std::uint64_t ticks(const PcuController& pcu) { return pcu.tick_count_; }
    static std::uint64_t searches(const PcuController& pcu) { return pcu.search_count_; }
};

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
// and across consecutive ticks (the memo carries terms from tick to tick).
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

/// The first PcuOutputs field where `a` and `b` differ ("" when none),
/// compared with exact equality.
std::string first_difference(const PcuOutputs& a, const PcuOutputs& b) {
    if (a.cores.size() != b.cores.size()) return "cores.size";
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        const CoreGrant& x = a.cores[i];
        const CoreGrant& y = b.cores[i];
        const std::string core = "cores[" + std::to_string(i) + "].";
        if (x.frequency.as_hz() != y.frequency.as_hz()) return core + "frequency";
        if (x.voltage.as_volts() != y.voltage.as_volts()) return core + "voltage";
        if (x.avx_licensed != y.avx_licensed) return core + "avx_licensed";
        if (x.license_level != y.license_level) return core + "license_level";
        if (x.throughput_factor != y.throughput_factor) return core + "throughput_factor";
    }
    if (a.uncore_frequency.as_hz() != b.uncore_frequency.as_hz()) return "uncore_frequency";
    if (a.uncore_voltage.as_volts() != b.uncore_voltage.as_volts()) return "uncore_voltage";
    if (a.uncore_clock_halted != b.uncore_clock_halted) return "uncore_clock_halted";
    if (a.tdp_limited != b.tdp_limited) return "tdp_limited";
    if (a.estimated_package_power.as_watts() != b.estimated_package_power.as_watts()) {
        return "estimated_package_power";
    }
    if (a.die_uncore_frequency.size() != b.die_uncore_frequency.size()) {
        return "die_uncore_frequency.size";
    }
    for (std::size_t d = 0; d < a.die_uncore_frequency.size(); ++d) {
        if (a.die_uncore_frequency[d].as_hz() != b.die_uncore_frequency[d].as_hz()) {
            return "die_uncore_frequency[" + std::to_string(d) + "]";
        }
    }
    return "";
}

/// Changes exactly one input to a different value: a field a carry key
/// covers, or (field 11) the system's fastest core, which only the
/// passive-socket rule reads, so an active socket replays across it. Most
/// fields change on one random core; the AVX densities reach the keys
/// through the license levels, and the EET snapshot follows the stalls.
void change_key_field(util::Rng& rng, const arch::Sku& sku, PcuInputs& in, unsigned field) {
    CoreInputs& c = in.cores[rng.uniform_u64(in.cores.size())];
    const unsigned lo = sku.min_frequency.ratio();
    const unsigned hi = sku.nominal_frequency.ratio() + 1;
    switch (field) {
        case 0: c.cdyn_utilization = rng.uniform(0.1, 1.1); break;
        case 1:
            c.state = c.state == cstates::CState::C0   ? cstates::CState::C1
                      : c.state == cstates::CState::C1 ? cstates::CState::C6
                                                       : cstates::CState::C0;
            break;
        case 2: c.requested_ratio = c.requested_ratio == hi ? lo : c.requested_ratio + 1; break;
        case 3: {
            // Every core at once, across the 0.25 EET watermark, so the EET
            // stall snapshot also moves on its next poll while inputs hold.
            const double stall = in.cores[0].stall_fraction < 0.25 ? rng.uniform(0.3, 0.8)
                                                                   : rng.uniform(0.0, 0.2);
            for (auto& core : in.cores) core.stall_fraction = stall;
            break;
        }
        case 4: c.avx_fraction = c.avx_fraction > 0.3 ? 0.0 : 0.95; break;
        case 5: c.avx512_fraction = c.avx512_fraction > 0.2 ? 0.0 : 0.9; break;
        case 6:
            c.hwp_request_raw = encode_hwp_request(
                HwpRequest{.epp = static_cast<unsigned>(rng.uniform_u64(256))});
            break;
        case 7:
            in.epb = in.epb == msr::EpbPolicy::Performance ? msr::EpbPolicy::EnergySaving
                     : in.epb == msr::EpbPolicy::Balanced  ? msr::EpbPolicy::Performance
                                                           : msr::EpbPolicy::Balanced;
            break;
        case 8: in.turbo_enabled = !in.turbo_enabled; break;
        case 9: in.uncore_traffic = rng.uniform(); break;
        case 10:  // into or out of the current guardband above 0.85
            in.current_intensity =
                in.current_intensity > 0.85 ? rng.uniform(0.0, 0.85) : rng.uniform(0.86, 1.0);
            break;
        case 11:
            in.fastest_system_core = Frequency::from_ratio(
                in.fastest_system_core == Frequency::from_ratio(hi) ? lo + 1 : hi);
            break;
        case 12:
            in.power_limit_watts =
                in.power_limit_watts > 0.0 ? 0.0 : rng.uniform(0.4, 1.0) * sku.tdp.as_watts();
            break;
        default: {
            const unsigned max_ratio = sku.uncore_min.ratio() +
                static_cast<unsigned>(rng.uniform_u64(
                    sku.uncore_max.ratio() - sku.uncore_min.ratio() + 1));
            in.uncore_ratio_limit_raw = max_ratio | std::uint64_t{sku.uncore_min.ratio()} << 8;
            break;
        }
    }
}
constexpr unsigned kKeyFields = 14;

// The carry -- core terms memoized across ticks and the replayed search --
// must be invisible: tick by tick, a controller that keeps it matches a copy
// whose carry is cleared before every evaluation. Each input holds for 1-16
// ticks, so the carry hits; then exactly one input changes, cycling through
// every key field, which must miss and refill, and the fastest system core,
// which an active socket must replay across. A loaded start (every
// core running a FIRESTARTER-like turbo request) is TDP-bound, so the
// budget and EET's turbo demotion decide grants there.
TEST(PcuController, CarriedSearchMatchesAFullSearch) {
    struct Case {
        arch::Generation generation;
        bool hwp;
    };
    for (const Case& k : {Case{arch::Generation::HaswellEP, false},
                          Case{arch::Generation::SandyBridgeEP, false},
                          Case{arch::Generation::SkylakeSP, true}}) {
        const auto& backend = platform::backend_for(k.generation);
        const arch::Sku& sku = backend.survey_sku();
        for (const bool power_limit : {false, true}) {
            for (const bool loaded : {false, true}) {
                PcuController carried{sku, 1, &backend.pcu_policy()};
                PcuController cleared = carried;
                util::Rng rng{0xCA77 + static_cast<std::uint64_t>(k.generation) * 4 +
                              (power_limit ? 2 : 0) + (loaded ? 1 : 0)};
                PcuInputs in = random_inputs(rng, sku, k.hwp, power_limit);
                if (loaded) {
                    for (auto& c : in.cores) {
                        c.state = cstates::CState::C0;
                        c.requested_ratio = sku.nominal_frequency.ratio() + 1;
                        c.avx_fraction = 0.95;
                        c.stall_fraction = rng.uniform(0.0, 0.2);
                        c.cdyn_utilization = rng.uniform(0.9, 1.1);
                    }
                    in.uncore_traffic = 1.0;
                }
                PcuOutputs a;
                PcuOutputs b;
                Time t = Time::zero();
                for (unsigned tick = 0, field = 0; tick < 2000; ++field) {
                    const auto hold = 1 + rng.uniform_u64(16);
                    for (std::uint64_t h = 0; h < hold; ++h, ++tick) {
                        t += Time::us(500);
                        carried.evaluate(in, t, a);
                        PcuControllerTestPeer::clear_carry(cleared);
                        cleared.evaluate(in, t, b);
                        ASSERT_EQ(first_difference(a, b), "")
                            << backend.name() << " limit=" << power_limit << " loaded=" << loaded
                            << " tick " << tick << " after changing key field "
                            << (field + kKeyFields - 1) % kKeyFields;
                    }
                    change_key_field(rng, sku, in, field % kKeyFields);
                }
            }
        }
    }
}

// On a steady TDP-bound Table V cell (FIRESTARTER, turbo request, EPB
// performance, one thread per core) only the dither moves from tick to
// tick, and it moves no search input, so nearly every tick replays the
// stored search. A key that held the system's fastest core would miss
// whenever either socket's dither flipped.
TEST(PcuController, SearchReplaysOnSteadyTicks) {
    core::Node node;
    node.set_epb(msr::EpbPolicy::Performance);
    node.set_all_workloads(&workloads::firestarter(), 1);
    node.request_turbo_all();
    node.run_for(Time::ms(100));  // settle, as the Table V cell does

    std::uint64_t ticks = 0;
    std::uint64_t searches = 0;
    for (unsigned s = 0; s < node.socket_count(); ++s) {
        ticks -= PcuControllerTestPeer::ticks(node.socket(s).pcu());
        searches -= PcuControllerTestPeer::searches(node.socket(s).pcu());
    }
    node.run_for(Time::sec(2));
    for (unsigned s = 0; s < node.socket_count(); ++s) {
        ticks += PcuControllerTestPeer::ticks(node.socket(s).pcu());
        searches += PcuControllerTestPeer::searches(node.socket(s).pcu());
        // No core ever leaves C0, so every tick was an active one.
        EXPECT_TRUE(node.socket(s).any_core_active());
    }
    ASSERT_GT(ticks, 7000u);  // two sockets x 2 s on the 500 us grid
    EXPECT_LT(static_cast<double>(searches), 0.01 * static_cast<double>(ticks))
        << searches << " searches in " << ticks << " active ticks";
}

}  // namespace
}  // namespace hsw::pcu
