// A PCU tick whose inputs are bit-identical to the last gathered set skips
// gathering and takes the controller's steady evaluation. That must be
// invisible: a node that takes it matches, to the last bit and after every
// 100 us, a twin whose sockets gather and fully evaluate on every tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/node.hpp"
#include "msr/addresses.hpp"
#include "node_twin.hpp"
#include "pcu/hwp.hpp"
#include "pcu/pcu.hpp"
#include "pcu/uncore_scaling.hpp"
#include "workloads/mixes.hpp"

namespace hsw::core {
namespace {

using twin::run;
using twin::Step;
using util::Frequency;
using util::Time;

/// The first grant field that differs between the two nodes' sockets, or
/// "": each core's clock, voltage, license level and throughput factor,
/// then the uncore clock, voltage and halt flag, and the per-die grants.
std::string first_grant_difference(const Node& a, const Node& b) {
    for (unsigned s = 0; s < a.socket_count(); ++s) {
        const Socket& sa = a.socket(s);
        const Socket& sb = b.socket(s);
        auto where = [s](const std::string& what) {
            return "socket " + std::to_string(s) + " " + what;
        };
        for (std::size_t i = 0; i < sa.cores().size(); ++i) {
            const SimCore& x = sa.cores()[i];
            const SimCore& y = sb.cores()[i];
            auto core = [&](const char* what) {
                return where("core " + std::to_string(i) + " " + what);
            };
            if (x.frequency.as_hz() != y.frequency.as_hz()) return core("frequency");
            if (x.voltage.as_volts() != y.voltage.as_volts()) return core("voltage");
            if (x.license_level != y.license_level) return core("license level");
            if (x.avx_licensed != y.avx_licensed) return core("avx_licensed");
            if (x.throughput_factor != y.throughput_factor) return core("throughput factor");
        }
        if (sa.uncore_frequency().as_hz() != sb.uncore_frequency().as_hz()) {
            return where("uncore frequency");
        }
        if (SocketTestPeer::uncore_voltage(sa).as_volts() !=
            SocketTestPeer::uncore_voltage(sb).as_volts()) {
            return where("uncore voltage");
        }
        if (sa.uncore_halted() != sb.uncore_halted()) return where("uncore halted");
        const auto& da = sa.die_uncore_frequencies();
        const auto& db = sb.die_uncore_frequencies();
        if (da.size() != db.size()) return where("die count");
        for (std::size_t d = 0; d < da.size(); ++d) {
            if (da[d].as_hz() != db[d].as_hz()) return where("die " + std::to_string(d));
        }
    }
    return "";
}

/// Steady evaluations on the calling thread during `body`.
template <class F>
std::uint64_t steady_ticks_in(F&& body) {
    const pcu::TickCounts before = pcu::PcuController::thread_tick_counts();
    body();
    const pcu::TickCounts after = pcu::PcuController::thread_tick_counts();
    return (after.evaluated - before.evaluated) - (after.gathered - before.gathered);
}

/// Runs `steps` on a node that takes steady ticks and on a twin that
/// gathers on every tick, in 100 us lockstep, comparing the grants and
/// every integrated quantity after each step. Returns the node's steady
/// ticks.
std::uint64_t expect_steady_ticks_invisible(const NodeConfig& cfg,
                                            const std::vector<Step>& steps) {
    Node steady{cfg};
    Node gathered{cfg};
    for (unsigned s = 0; s < gathered.socket_count(); ++s) {
        SocketTestPeer::gather_every_tick(gathered.socket(s));
    }
    std::uint64_t steady_ticks = 0;
    std::uint64_t twin_steady_ticks = 0;
    auto compare = [&] {
        const std::string grants = first_grant_difference(steady, gathered);
        if (!grants.empty()) return grants;
        return twin::first_difference(steady, gathered);
    };
    for (const Step& step : steps) {
        if (step.act) {
            steady_ticks += steady_ticks_in([&] { step.act(steady); });
            twin_steady_ticks += steady_ticks_in([&] { step.act(gathered); });
            const std::string diff = compare();
            EXPECT_EQ(diff, "") << "after: " << step.what;
            if (!diff.empty()) return steady_ticks;
            continue;
        }
        for (Time done = Time::zero(); done < step.run; done += Time::us(100)) {
            const Time dt = std::min(Time::us(100), step.run - done);
            steady_ticks += steady_ticks_in([&] { steady.run_for(dt); });
            twin_steady_ticks += steady_ticks_in([&] { gathered.run_for(dt); });
            const std::string diff = compare();
            EXPECT_EQ(diff, "") << "during: " << step.what << ", at "
                                << steady.now().as_us() << " us";
            if (!diff.empty()) return steady_ticks;
        }
    }
    EXPECT_EQ(twin_steady_ticks, 0u);
    return steady_ticks;
}

/// Sets every core of `socket` to `w` with `threads` threads.
void load_socket(Node& n, unsigned socket, const workloads::Workload& w, unsigned threads) {
    for (unsigned c = 0; c < n.cores_per_socket(); ++c) {
        n.set_workload(n.cpu_id(socket, c), &w, threads);
    }
}

// Each writer the two CachedRates scripts leave entangled, on its own: EPB
// (on a memory-bound socket, whose turbo EET demotes unless the bias is
// performance), MSR_PKG_POWER_LIMIT (RaplPackage takes it, not the socket)
// and UNCORE_RATIO_LIMIT writes, and a park and a wake inside one grid
// period. Then sinus on one socket (its cdyn moves on every tick), and
// memory-bound phases on a balanced turbo socket: EET's stall snapshot
// then changes on a later poll, at ticks whose inputs did not move.
std::vector<Step> haswell_writers_script() {
    std::vector<Step> steps{
        {"FIRESTARTER on socket 0, memory stream on socket 1, turbo request",
         [](Node& n) {
             load_socket(n, 0, workloads::firestarter(), 2);
             load_socket(n, 1, workloads::memory_stream(), 1);
             n.request_turbo_all();
         }},
        run(Time::ms(50)),
        {"EPB performance", [](Node& n) { n.set_epb(msr::EpbPolicy::Performance); }},
        run(Time::ms(10)),
        {"EPB energy saving", [](Node& n) { n.set_epb(msr::EpbPolicy::EnergySaving); }},
        run(Time::ms(10)),
        {"EPB balanced", [](Node& n) { n.set_epb(msr::EpbPolicy::Balanced); }},
        run(Time::ms(10)),
        {"MSR_PKG_POWER_LIMIT 80 W on socket 0",
         [](Node& n) { n.msrs().write(0, msr::MSR_PKG_POWER_LIMIT, (80 * 8) | (1ULL << 15)); }},
        run(Time::ms(20)),
        {"MSR_PKG_POWER_LIMIT off", [](Node& n) { n.msrs().write(0, msr::MSR_PKG_POWER_LIMIT, 0); }},
        run(Time::ms(10)),
        {"UNCORE_RATIO_LIMIT 12-20 on socket 0",
         [](Node& n) {
             n.msrs().write(0, msr::MSR_UNCORE_RATIO_LIMIT, pcu::encode_uncore_ratio_limit(20, 12));
         }},
        run(Time::ms(20)),
        {"UNCORE_RATIO_LIMIT off", [](Node& n) { n.msrs().write(0, msr::MSR_UNCORE_RATIO_LIMIT, 0); }},
        run(Time::ms(10)),
        {"park cpu 3 in C6", [](Node& n) { n.park(3, cstates::CState::C6); }},
        run(Time::us(150)),
        {"wake cpu 3 inside the same grid period", [](Node& n) { (void)n.wake(0, 3); }},
        run(Time::ms(20)),
        {"sinus on socket 1", [](Node& n) { load_socket(n, 1, workloads::sinus(), 1); }},
        run(Time::ms(30)),
        {"busy wait on socket 1", [](Node& n) { load_socket(n, 1, workloads::busy_wait(), 1); }},
        run(Time::ms(20)),
    };
    // Memory-bound phases of different lengths start at different offsets
    // to EET's 1 ms poll.
    for (int k = 0; k < 6; ++k) {
        steps.push_back({"memory stream on socket 1",
                         [](Node& n) { load_socket(n, 1, workloads::memory_stream(), 1); }});
        steps.push_back(run(Time::us(1300 + 170 * k)));
        steps.push_back({"busy wait on socket 1",
                         [](Node& n) { load_socket(n, 1, workloads::busy_wait(), 1); }});
        steps.push_back(run(Time::us(2100 + 230 * k)));
    }
    return steps;
}

// Skylake-SP: an AVX-512 burst that takes license level 2 and then, on a
// scalar load, relaxes one level per 1 ms; then each HWP writer on its own:
// MSR_PM_ENABLE, IA32_HWP_REQUEST_PKG (which the cores fall back to while
// their own request is 0) and one core's IA32_HWP_REQUEST.
std::vector<Step> skylake_writers_script() {
    return {
        {"AVX-512 FIRESTARTER on cores 0-5, busy wait on the rest",
         [](Node& n) {
             for (unsigned cpu = 0; cpu < n.cpu_count(); ++cpu) {
                 n.set_workload(cpu,
                                n.core_of(cpu) < 6 ? &twin::avx512_firestarter()
                                                   : &workloads::busy_wait(),
                                2);
             }
         }},
        run(Time::ms(30)),
        {"the burst ends: busy wait on cores 0-5",
         [](Node& n) {
             for (unsigned cpu = 0; cpu < n.cpu_count(); ++cpu) {
                 if (n.core_of(cpu) < 6) n.set_workload(cpu, &workloads::busy_wait(), 2);
             }
         }},
        run(Time::ms(6)),
        {"HWP on", [](Node& n) { n.enable_hwp(); }},
        run(Time::ms(10)),
        {"IA32_HWP_REQUEST_PKG on socket 0: ratios 10-15",
         [](Node& n) {
             n.msrs().write(0, msr::IA32_HWP_REQUEST_PKG,
                            pcu::encode_hwp_request({.min_ratio = 10, .max_ratio = 15}));
         }},
        run(Time::ms(10)),
        {"IA32_HWP_REQUEST on cpu 1: EPP 0",
         [](Node& n) { n.set_hwp_request(1, pcu::HwpRequest{.epp = 0}); }},
        run(Time::ms(10)),
        {"HWP off", [](Node& n) { n.enable_hwp(false); }},
        run(Time::ms(10)),
    };
}

TEST(Node, SteadyTicksMatchGatheredTicks) {
    const std::uint64_t haswell = expect_steady_ticks_invisible(NodeConfig{}, twin::haswell_script());
    const std::uint64_t skylake =
        expect_steady_ticks_invisible(twin::skylake_config(), twin::skylake_script());
    const std::uint64_t haswell_writers =
        expect_steady_ticks_invisible(NodeConfig{}, haswell_writers_script());
    const std::uint64_t skylake_writers =
        expect_steady_ticks_invisible(twin::skylake_config(), skylake_writers_script());
    // The scripts hold their loads long enough for steady ticks to run.
    EXPECT_GT(haswell, 10000u);
    EXPECT_GT(skylake, 100u);
    EXPECT_GT(haswell_writers, 100u);
    EXPECT_GT(skylake_writers, 100u);
}

// No policy reads system_active or fastest_system_core on an active socket,
// so outputs cannot show whether a moved argument was gathered; the tick
// counts can. A tick with the same arguments takes the steady path.
TEST(Socket, MovedTickArgumentsAreGathered) {
    Node node;
    load_socket(node, 0, workloads::firestarter(), 2);
    node.request_turbo_all();
    node.run_for(Time::ms(50));
    Socket& socket = node.socket(0);
    Time t = node.now();
    auto tick = [&](bool system_active, Frequency fastest) {
        const std::uint64_t before = pcu::PcuController::thread_tick_counts().gathered;
        t += Time::us(500);
        (void)socket.pcu_tick(t, system_active, fastest);
        return pcu::PcuController::thread_tick_counts().gathered - before;
    };
    (void)tick(true, Frequency::zero());
    EXPECT_EQ(tick(true, Frequency::zero()), 0u);
    EXPECT_EQ(tick(false, Frequency::zero()), 1u);
    EXPECT_EQ(tick(false, Frequency::zero()), 0u);
    EXPECT_EQ(tick(false, Frequency::ghz(2.5)), 1u);
    EXPECT_EQ(tick(false, Frequency::ghz(2.5)), 0u);
}

}  // namespace
}  // namespace hsw::core
