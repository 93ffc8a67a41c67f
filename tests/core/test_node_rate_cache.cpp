// Socket::advance_to() reuses the rates it derived for an operating point
// until one of their inputs changes. Reuse must be invisible: a node that
// reuses them matches, to the last bit, a twin that re-derives them before
// every integration.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/node.hpp"
#include "pcu/hwp.hpp"
#include "platform/registry.hpp"
#include "workloads/mixes.hpp"

namespace hsw::core {

/// Test seam: makes every advance_to() re-derive the socket's rates.
struct SocketTestPeer {
    static void recompute_every_advance(Socket& s) {
        s.reuse_rates_ = false;
        s.invalidate_rates();
    }
};

namespace {

using util::Frequency;
using util::Time;

struct Step {
    std::string what;
    std::function<void(Node&)> act;
};

/// The first integrated quantity that differs between the two nodes, or ""
/// when every counter, residency, energy and meter sample is identical.
std::string first_difference(Node& a, Node& b) {
    auto differs = [](double x, double y) { return !(x == y); };
    for (unsigned s = 0; s < a.socket_count(); ++s) {
        const Socket& sa = a.socket(s);
        const Socket& sb = b.socket(s);
        const std::string where = "socket " + std::to_string(s) + " ";
        for (std::size_t i = 0; i < sa.cores().size(); ++i) {
            const SimCore& x = sa.cores()[i];
            const SimCore& y = sb.cores()[i];
            const std::string core = where + "core " + std::to_string(i) + " ";
            if (differs(x.aperf, y.aperf)) return core + "aperf";
            if (differs(x.mperf, y.mperf)) return core + "mperf";
            if (differs(x.instructions, y.instructions)) return core + "instructions";
            if (differs(x.core_cycles, y.core_cycles)) return core + "core_cycles";
            if (differs(x.stall_cycles, y.stall_cycles)) return core + "stall_cycles";
            if (differs(x.c3_residency, y.c3_residency)) return core + "c3_residency";
            if (differs(x.c6_residency, y.c6_residency)) return core + "c6_residency";
        }
        if (differs(sa.pkg_c3_residency(), sb.pkg_c3_residency())) return where + "pkg_c3";
        if (differs(sa.pkg_c6_residency(), sb.pkg_c6_residency())) return where + "pkg_c6";
        if (differs(sa.uncore_cycles(), sb.uncore_cycles())) return where + "uncore_cycles";
        const rapl::RaplPackage& ra = sa.rapl();
        const rapl::RaplPackage& rb = sb.rapl();
        if (differs(ra.true_pkg_energy().as_joules(), rb.true_pkg_energy().as_joules())) {
            return where + "true package energy";
        }
        if (differs(ra.true_dram_energy().as_joules(), rb.true_dram_energy().as_joules())) {
            return where + "true DRAM energy";
        }
        if (differs(ra.reported_pkg_energy().as_joules(),
                    rb.reported_pkg_energy().as_joules())) {
            return where + "reported package energy";
        }
        if (differs(ra.reported_dram_energy().as_joules(),
                    rb.reported_dram_energy().as_joules())) {
            return where + "reported DRAM energy";
        }
    }
    const auto& ma = a.meter().series();
    const auto& mb = b.meter().series();
    if (ma.size() != mb.size()) return "meter sample count";
    for (std::size_t i = 0; i < ma.size(); ++i) {
        if (ma[i].when != mb[i].when || differs(ma[i].power.as_watts(), mb[i].power.as_watts())) {
            return "meter sample " + std::to_string(i);
        }
    }
    return "";
}

/// Runs `steps` on a node that reuses its rates and on a twin that
/// re-derives them on every integration, comparing after each step.
void expect_reuse_is_invisible(const NodeConfig& cfg, const std::vector<Step>& steps) {
    Node cached{cfg};
    Node fresh{cfg};
    for (unsigned s = 0; s < fresh.socket_count(); ++s) {
        SocketTestPeer::recompute_every_advance(fresh.socket(s));
    }
    for (const Step& step : steps) {
        step.act(cached);
        step.act(fresh);
        ASSERT_EQ(first_difference(cached, fresh), "") << "after: " << step.what;
    }
}

Step run(Time dt) {
    return {"run " + std::to_string(dt.as_ns() / 1'000'000) + " ms",
            [dt](Node& n) { n.run_for(dt); }};
}

/// Parks every core of `socket` in `state`.
void park_socket(Node& n, unsigned socket, cstates::CState state) {
    for (unsigned c = 0; c < n.cores_per_socket(); ++c) n.park(n.cpu_id(socket, c), state);
}

// Haswell-EP: mprime (square-wave cdyn, two threads) beside FIRESTARTER
// (one thread) in a TDP-limited dither, parking to C3 and C6 and waking, a
// whole-system idle spell (package C3 and C6, halted uncore), workload swaps and
// p-state, EPB and turbo changes. The run crosses mprime's phase flip at
// 5.5 s, where the rates change with no event at all. Then Skylake-SP with
// HWP on: AVX-512 license levels, per-die uncore grants, HWP request
// changes and a park/wake cycle.
TEST(Node, CachedRatesMatchRecomputedRates) {
    const std::vector<Step> haswell{
        {"load both sockets",
         [](Node& n) {
             for (unsigned cpu = 0; cpu < n.cpu_count(); ++cpu) {
                 if (n.core_of(cpu) < n.cores_per_socket() / 2) {
                     n.set_workload(cpu, &workloads::mprime(), 2);
                 } else {
                     n.set_workload(cpu, &workloads::firestarter(), 1);
                 }
             }
             n.request_turbo_all();
         }},
        run(Time::ms(300)),
        {"park cpu 1 in C3, cpu 8 in C6",
         [](Node& n) {
             n.park(1, cstates::CState::C3);
             n.park(8, cstates::CState::C6);
         }},
        run(Time::ms(40)),
        {"wake cpu 1 and cpu 8", [](Node& n) {
             (void)n.wake(0, 1);
             (void)n.wake(0, 8);
         }},
        run(Time::ms(40)),
        {"p-state 1.8 GHz", [](Node& n) { n.set_pstate_all(Frequency::ghz(1.8)); }},
        run(Time::ms(30)),
        {"EPB performance, turbo request",
         [](Node& n) {
             n.set_epb(msr::EpbPolicy::Performance);
             n.request_turbo_all();
         }},
        run(Time::ms(30)),
        {"turbo off", [](Node& n) { n.set_turbo_enabled(false); }},
        run(Time::ms(30)),
        {"turbo on, EPB balanced",
         [](Node& n) {
             n.set_turbo_enabled(true);
             n.set_epb(msr::EpbPolicy::Balanced);
         }},
        run(Time::ms(30)),
        {"swap workloads on socket 1",
         [](Node& n) {
             n.set_workload(n.cpu_id(1, 1), &workloads::firestarter(), 2);
             n.set_workload(n.cpu_id(1, n.cores_per_socket() - 1), &workloads::mprime(), 1);
         }},
        run(Time::ms(30)),
        {"clear a socket-1 core", [](Node& n) { n.clear_workload(n.cpu_id(1, 0)); }},
        run(Time::ms(30)),
        {"socket 1 idle in C6", [](Node& n) { park_socket(n, 1, cstates::CState::C6); }},
        run(Time::ms(30)),
        {"socket 0 idle in C3: the system sleeps",
         [](Node& n) { park_socket(n, 0, cstates::CState::C3); }},
        run(Time::ms(30)),
        {"wake a socket-1 core from socket 0",
         [](Node& n) { (void)n.wake(0, n.cpu_id(1, 2)); }},
        run(Time::ms(20)),
        {"reload socket 0",
         [](Node& n) {
             for (unsigned c = 0; c < n.cores_per_socket(); ++c) {
                 n.set_workload(n.cpu_id(0, c),
                                c % 2 == 0 ? &workloads::mprime() : &workloads::firestarter(), 2);
             }
         }},
        run(Time::ms(5600)),  // past mprime's 5.5 s phase flip
    };
    expect_reuse_is_invisible(NodeConfig{}, haswell);

    static const workloads::Workload avx512_firestarter = [] {
        workloads::Workload w = workloads::firestarter();
        w.name = "firestarter-avx512";
        w.avx512_fraction = 0.9;
        return w;
    }();
    NodeConfig cfg;
    cfg.sku = &platform::backend_for(arch::Generation::SkylakeSP).survey_sku();
    const std::vector<Step> skylake{
        {"HWP on, EPP 0, mixed load",
         [](Node& n) {
             n.enable_hwp();
             n.set_hwp_request_all(pcu::HwpRequest{.epp = 0});
             for (unsigned cpu = 0; cpu < n.cpu_count(); ++cpu) {
                 n.set_workload(cpu, cpu % 3 == 0 ? &workloads::mprime() : &avx512_firestarter,
                                2);
             }
         }},
        run(Time::ms(200)),
        {"EPP 255", [](Node& n) { n.set_hwp_request_all(pcu::HwpRequest{.epp = 255}); }},
        run(Time::ms(40)),
        {"park cpu 2 in C6", [](Node& n) { n.park(2, cstates::CState::C6); }},
        run(Time::ms(20)),
        {"wake cpu 2", [](Node& n) { (void)n.wake(3, 2); }},
        run(Time::ms(40)),
    };
    expect_reuse_is_invisible(cfg, skylake);
}

}  // namespace
}  // namespace hsw::core
