// AVX frequency license state machine (Section II-F).
//
// Workflow modeled after the paper's description:
//  1. AVX instructions draw more current; the core signals the PCU,
//  2. execution of AVX instructions is slowed during the voltage ramp,
//  3. the clock may drop to stay inside TDP (handled by the budget loop),
//  4. full throughput resumes once the voltage is adjusted,
//  5. the license is dropped 1 ms after the last AVX instruction.
#pragma once

#include "util/units.hpp"

namespace hsw::pcu {

using util::Time;
using util::Voltage;

class AvxLicense {
public:
    /// AVX density above which a core requests the 256-bit license.
    static constexpr double kLicenseThreshold = 0.30;
    /// Extra voltage while the license is held.
    static constexpr double kLicenseVoltageAdderVolts = 0.020;
    /// Duration of the reduced-throughput voltage ramp phase.
    static constexpr Time kRampDuration = Time::us(10);
    /// Throughput factor while ramping (execution "slowed").
    static constexpr double kRampThroughputFactor = 0.25;

    /// Update with the current workload AVX density; `now` is sim time.
    void update(double avx_fraction, Time now);

    [[nodiscard]] bool licensed() const { return licensed_; }

    /// True while the voltage ramp throttles execution.
    [[nodiscard]] bool ramping(Time now) const {
        return licensed_ && now < ramp_end_;
    }

    /// Voltage adder to apply to the core's V-f point.
    [[nodiscard]] Voltage voltage_adder() const {
        return Voltage::volts(licensed_ ? kLicenseVoltageAdderVolts : 0.0);
    }

    /// Throughput multiplier for instruction execution at `now`.
    [[nodiscard]] double throughput_factor(Time now) const {
        return ramping(now) ? kRampThroughputFactor : 1.0;
    }

private:
    bool licensed_ = false;
    Time ramp_end_ = Time::zero();
    Time last_avx_seen_ = Time::zero();
};

/// Multi-level license state machine (Skylake-SP, Schoene et al.):
/// level 0 = scalar/SSE, level 1 = the 256-bit AVX license above,
/// level 2 = AVX-512. Upward transitions jump straight to the demanded
/// level (one voltage ramp); downward transitions relax one level at a
/// time, each after the 1 ms delay. With zero AVX-512 density the machine
/// is byte-for-byte equivalent to AvxLicense (asserted by tests), which is
/// what keeps the Haswell goldens untouched.
class AvxLicenseLevels {
public:
    /// 512-bit density above which a core requests license level 2.
    static constexpr double kAvx512Threshold = 0.20;
    static constexpr unsigned kMaxLevel = 2;

    void update(double avx_fraction, double avx512_fraction, Time now);
    /// What update() does at `now` while the demand equals the held level:
    /// it only restarts the relax timer. Lets a caller that skipped such
    /// updates catch up with one call for the last of them.
    void hold(Time now) { last_at_or_above_ = now; }

    [[nodiscard]] unsigned level() const { return level_; }
    [[nodiscard]] bool licensed() const { return level_ >= 1; }
    /// The last update's demand equals the held level, so until the demand
    /// moves, updates change nothing but the relax timer.
    [[nodiscard]] bool idle() const { return demand_ == level_; }
    /// End of the last voltage ramp (it throttles only while licensed).
    [[nodiscard]] Time ramp_end() const { return ramp_end_; }

    [[nodiscard]] bool ramping(Time now) const {
        return level_ > 0 && now < ramp_end_;
    }

    [[nodiscard]] double throughput_factor(Time now) const {
        return ramping(now) ? AvxLicense::kRampThroughputFactor : 1.0;
    }

private:
    unsigned level_ = 0;
    unsigned demand_ = 0;  // the level the last update's densities asked for
    Time ramp_end_ = Time::zero();
    // Last instant the demanded level was at or above the held one; the
    // relax timer measures from here (AvxLicense's last_avx_seen_).
    Time last_at_or_above_ = Time::zero();
};

}  // namespace hsw::pcu
