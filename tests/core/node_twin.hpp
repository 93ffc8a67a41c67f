// Twin-node checks for the node model's shortcuts. A node that takes a
// shortcut runs a script in lockstep with a twin whose sockets skip it
// (through SocketTestPeer), and the two must match to the last bit.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/node.hpp"
#include "pcu/hwp.hpp"
#include "platform/registry.hpp"
#include "workloads/mixes.hpp"

namespace hsw::core {

/// Test seam: switches a twin socket's shortcuts off, and reads what the
/// socket keeps private.
struct SocketTestPeer {
    /// Every advance_to() re-derives the socket's rates.
    static void recompute_every_advance(Socket& s) {
        s.reuse_rates_ = false;
        s.invalidate_rates();
    }
    /// Every PCU tick gathers its inputs and fully evaluates.
    static void gather_every_tick(Socket& s) { s.steady_ticks_ = false; }
    [[nodiscard]] static util::Voltage uncore_voltage(const Socket& s) {
        return s.uncore_voltage_;
    }
};

namespace twin {

using util::Frequency;
using util::Time;

/// One scripted action, or (with `act` empty) a run of `run` sim time.
struct Step {
    std::string what;
    std::function<void(Node&)> act;
    Time run = Time::zero();
};

inline Step run(Time dt) {
    return {"run " + std::to_string(dt.as_ns() / 1000) + " us", nullptr, dt};
}

/// Parks every core of `socket` in `state`.
inline void park_socket(Node& n, unsigned socket, cstates::CState state) {
    for (unsigned c = 0; c < n.cores_per_socket(); ++c) n.park(n.cpu_id(socket, c), state);
}

/// FIRESTARTER with a 512-bit density that takes license level 2 on
/// Skylake-SP.
inline const workloads::Workload& avx512_firestarter() {
    static const workloads::Workload w = [] {
        workloads::Workload f = workloads::firestarter();
        f.name = "firestarter-avx512";
        f.avx512_fraction = 0.9;
        return f;
    }();
    return w;
}

inline NodeConfig skylake_config() {
    NodeConfig cfg;
    cfg.sku = &platform::backend_for(arch::Generation::SkylakeSP).survey_sku();
    return cfg;
}

/// The first integrated quantity that differs between the two nodes, or ""
/// when every counter, residency, energy and meter sample is identical.
inline std::string first_difference(Node& a, Node& b) {
    auto differs = [](double x, double y) { return !(x == y); };
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
            if (differs(x.aperf, y.aperf)) return core("aperf");
            if (differs(x.mperf, y.mperf)) return core("mperf");
            if (differs(x.instructions, y.instructions)) return core("instructions");
            if (differs(x.core_cycles, y.core_cycles)) return core("core_cycles");
            if (differs(x.stall_cycles, y.stall_cycles)) return core("stall_cycles");
            if (differs(x.c3_residency, y.c3_residency)) return core("c3_residency");
            if (differs(x.c6_residency, y.c6_residency)) return core("c6_residency");
        }
        if (differs(sa.pkg_c3_residency(), sb.pkg_c3_residency())) return where("pkg_c3");
        if (differs(sa.pkg_c6_residency(), sb.pkg_c6_residency())) return where("pkg_c6");
        if (differs(sa.uncore_cycles(), sb.uncore_cycles())) return where("uncore_cycles");
        const rapl::RaplPackage& ra = sa.rapl();
        const rapl::RaplPackage& rb = sb.rapl();
        if (differs(ra.true_pkg_energy().as_joules(), rb.true_pkg_energy().as_joules())) {
            return where("true package energy");
        }
        if (differs(ra.true_dram_energy().as_joules(), rb.true_dram_energy().as_joules())) {
            return where("true DRAM energy");
        }
        if (differs(ra.reported_pkg_energy().as_joules(),
                    rb.reported_pkg_energy().as_joules())) {
            return where("reported package energy");
        }
        if (differs(ra.reported_dram_energy().as_joules(),
                    rb.reported_dram_energy().as_joules())) {
            return where("reported DRAM energy");
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
    if (a.simulator().processed_events() != b.simulator().processed_events()) {
        return "events dispatched";
    }
    return "";
}

// Haswell-EP: mprime (square-wave cdyn, two threads) beside FIRESTARTER
// (one thread) in a TDP-limited dither, parking to C3 and C6 and waking, a
// whole-system idle spell (package C3 and C6, halted uncore), workload swaps and
// p-state, EPB and turbo changes. The run crosses mprime's phase flip at
// 5.5 s, where the rates change with no event at all.
inline std::vector<Step> haswell_script() {
    return {
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
}

// Skylake-SP with HWP on: AVX-512 license levels, per-die uncore grants,
// HWP request changes and a park/wake cycle.
inline std::vector<Step> skylake_script() {
    return {
        {"HWP on, EPP 0, mixed load",
         [](Node& n) {
             n.enable_hwp();
             n.set_hwp_request_all(pcu::HwpRequest{.epp = 0});
             for (unsigned cpu = 0; cpu < n.cpu_count(); ++cpu) {
                 n.set_workload(cpu, cpu % 3 == 0 ? &workloads::mprime() : &avx512_firestarter(),
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
}

}  // namespace twin
}  // namespace hsw::core
