// Package power assembly.
//
// Dynamic power follows P = cdyn * V^2 * f with workload-dependent cdyn
// (utilization of execution units, decoders and data transfers, Section
// VIII / [30]); leakage scales with V^2 and vanishes for power-gated (C6)
// cores; DRAM power has a background plus a bandwidth-proportional part.
#pragma once

#include "arch/calibration.hpp"
#include "util/units.hpp"

namespace hsw::power {

using util::Frequency;
using util::Power;
using util::Voltage;

struct CoreActivity {
    /// Relative dynamic-capacitance utilization (FIRESTARTER payload = 1.0).
    double cdyn_utilization = 0.0;
    /// True while in C0 (leakage applies in shallow idle, not in C6).
    bool clock_running = false;
    /// True when the domain is power-gated (C6): no dynamic, no leakage.
    bool power_gated = false;
};

/// Dynamic + leakage power of one core. Defined here so the PCU's budget
/// loop and the socket integrator inline it (the build targets baseline
/// x86-64 without FMA, so inlining cannot contract and change a result).
[[nodiscard]] inline Power core_power(const CoreActivity& activity, Voltage v, Frequency f) {
    namespace cal = hsw::arch::cal;
    if (activity.power_gated) return Power::zero();
    const double v2 = v.as_volts() * v.as_volts();
    double watts = cal::kCoreLeakagePerV2 * v2;
    if (activity.clock_running) {
        watts += cal::kCoreCdynFullLoad * activity.cdyn_utilization * v2 * f.as_ghz();
    }
    return Power::watts(watts);
}

/// Uncore (ring, L3, IMC front end) power for a traffic level in [0, 1].
[[nodiscard]] Power uncore_power(double traffic_utilization, Voltage v, Frequency f);

/// DRAM power for one socket at the given aggregate read+write bandwidth.
[[nodiscard]] Power dram_power(util::Bandwidth bw);

/// Static per-socket floor (IO, PLLs) inside the package RAPL domain.
[[nodiscard]] Power socket_static_power();

}  // namespace hsw::power
