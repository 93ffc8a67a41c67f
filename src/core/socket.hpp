// One simulated processor package: cores, uncore, PCU, RAPL.
//
// Between events all state is constant, so the socket integrates counters
// and energy in closed form in advance_to(). The PCU evaluates on the
// 500 us opportunity grid; grants take effect after the FIVR/PLL switching
// time, which is what the FTaLaT-style tools measure.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "arch/sku.hpp"
#include "arch/topology.hpp"
#include "cstates/cstate.hpp"
#include "mem/bandwidth_model.hpp"
#include "pcu/pcu.hpp"
#include "rapl/model.hpp"
#include "rapl/rapl.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workloads/workload.hpp"

namespace hsw::core {

using util::Bandwidth;
using util::Frequency;
using util::Power;
using util::Time;
using util::Voltage;

class Node;

/// One physical core (up to two hardware threads run the same workload).
struct SimCore {
    cstates::CState state = cstates::CState::C6;
    const workloads::Workload* workload = nullptr;  // null while parked
    unsigned threads = 1;                           // 1 or 2 (HT)
    unsigned requested_ratio = 0;                   // IA32_PERF_CTL target

    // Current grant.
    Frequency frequency;
    Voltage voltage;
    bool avx_licensed = false;
    unsigned license_level = 0;  // 0 none, 1 AVX, 2 AVX-512
    double throughput_factor = 1.0;

    /// Raw IA32_HWP_REQUEST for this core (0 = package fallback). Only
    /// consulted while HWP is enabled on an HWP-capable backend.
    std::uint64_t hwp_request_raw = 0;

    // Free-running counters (doubles; converted to u64 at the MSR edge).
    double aperf = 0.0;
    double mperf = 0.0;
    double instructions = 0.0;
    double core_cycles = 0.0;
    double stall_cycles = 0.0;
    // C-state residency in TSC-rate ticks (MSR_CORE_C3/C6_RESIDENCY).
    double c3_residency = 0.0;
    double c6_residency = 0.0;
    // Per-core silicon variation: relative voltage factor (Section III).
    double vf_factor = 1.0;
};

class Socket {
public:
    Socket(const arch::Sku& sku, unsigned socket_id, bool turbo_enabled,
           rapl::DramMode dram_mode, std::uint64_t seed);

    // --- time integration ---
    /// Integrate counters/energy from the last update to `now` assuming the
    /// current operating point, then remember `now`.
    void advance_to(Time now);

    /// One PCU opportunity-grid evaluation into the socket's reused tick
    /// buffer. Returns the grants when they change the operating point,
    /// else null; the pointee stays valid until the next pcu_tick(). A tick
    /// whose inputs are bit-identical to the last gathered set gathers
    /// nothing and takes the controller's steady evaluation.
    [[nodiscard]] const pcu::PcuOutputs* pcu_tick(Time now, bool system_active,
                                                  Frequency fastest_system_core);

    /// Apply grants now (the legacy immediate-switch path).
    void apply_grants(const pcu::PcuOutputs& out);

    /// Move the last pcu_tick()'s grants into the socket's pending slot,
    /// to be applied after the switching delay. A socket has at most one
    /// pending grant: a switch (19-24 us) ends before the next grid
    /// opportunity (at least 496 us later).
    void stage_grants() { std::swap(staged_, tick_); }
    /// Apply the pending grant (called at tick + switching time).
    void apply_staged_grants() { apply_grants(staged_); }

    // --- core control: every write to a core goes through these ---
    // Each writer of a PCU input (these, and the EPB, turbo, uncore-limit
    // and HWP setters below) bumps the socket's PCU input epoch.
    /// Run `w` on `core` with `threads` (1 or 2) hardware threads, in C0.
    void run_workload(unsigned core, const workloads::Workload* w, unsigned threads);
    /// Put `core` in `state` with no workload.
    void park(unsigned core, cstates::CState state);
    /// `core` reaches C0 at the end of a wake-up, keeping its workload.
    void wake(unsigned core);
    /// IA32_PERF_CTL / IA32_HWP_REQUEST targets: PCU inputs only, so the
    /// integration rates stay valid.
    void set_requested_ratio(unsigned core, unsigned ratio) {
        cores_[core].requested_ratio = ratio;
        ++pcu_epoch_;
    }
    void set_hwp_request(unsigned core, std::uint64_t raw) {
        cores_[core].hwp_request_raw = raw;
        ++pcu_epoch_;
    }

    // --- state access ---
    [[nodiscard]] unsigned id() const { return id_; }
    /// "socket<id>", the subject of this socket's trace records.
    [[nodiscard]] std::string_view name() const { return name_; }
    [[nodiscard]] const arch::Sku& sku() const { return *sku_; }
    [[nodiscard]] const std::vector<SimCore>& cores() const { return cores_; }
    [[nodiscard]] Frequency uncore_frequency() const { return uncore_freq_; }
    [[nodiscard]] bool uncore_halted() const { return uncore_halted_; }
    [[nodiscard]] double uncore_cycles() const { return uncore_cycles_; }
    [[nodiscard]] double pkg_c3_residency() const { return pkg_c3_residency_; }
    [[nodiscard]] double pkg_c6_residency() const { return pkg_c6_residency_; }
    /// Package C-state under the system-wide activity rule.
    [[nodiscard]] cstates::PackageCState package_state(bool any_core_active_in_system) const;
    /// Whether the whole system was active at the last update (package
    /// C-state bookkeeping input; set by the node).
    void set_system_active_hint(bool active) { system_active_hint_ = active; }
    [[nodiscard]] rapl::RaplPackage& rapl() { return rapl_; }
    [[nodiscard]] const rapl::RaplPackage& rapl() const { return rapl_; }
    [[nodiscard]] const mem::BandwidthModel& bandwidth_model() const { return bw_model_; }
    [[nodiscard]] const arch::DieTopology& topology() const { return topo_; }

    void set_epb(msr::EpbPolicy p) {
        epb_ = p;
        ++pcu_epoch_;
    }
    [[nodiscard]] msr::EpbPolicy epb() const { return epb_; }
    void set_turbo_enabled(bool on) {
        turbo_enabled_ = on;
        ++pcu_epoch_;
    }
    [[nodiscard]] bool turbo_enabled() const { return turbo_enabled_; }

    /// Raw MSR_UNCORE_RATIO_LIMIT value (consumed by the UFS policy).
    void set_uncore_ratio_limit(std::uint64_t raw) {
        uncore_ratio_limit_raw_ = raw;
        ++pcu_epoch_;
    }
    [[nodiscard]] std::uint64_t uncore_ratio_limit() const { return uncore_ratio_limit_raw_; }

    // --- HWP (Skylake-SP+; ignored by non-HWP backends) ---
    void set_hwp_enabled(bool on) {
        hwp_enabled_ = on;
        ++pcu_epoch_;
    }
    [[nodiscard]] bool hwp_enabled() const { return hwp_enabled_; }
    void set_hwp_request_pkg(std::uint64_t raw) {
        hwp_request_pkg_raw_ = raw;
        ++pcu_epoch_;
    }
    [[nodiscard]] std::uint64_t hwp_request_pkg() const { return hwp_request_pkg_raw_; }

    /// Per-die uncore grants (empty unless the backend models them).
    [[nodiscard]] const std::vector<Frequency>& die_uncore_frequencies() const {
        return die_uncore_;
    }

    /// Highest granted clock among C0 cores (zero if none).
    [[nodiscard]] Frequency fastest_active_core() const;
    [[nodiscard]] bool any_core_active() const { return active_cores_ > 0; }

    /// Instantaneous package / DRAM power at the current operating point.
    [[nodiscard]] Power current_package_power(Time now) const;
    [[nodiscard]] Power current_dram_power() const;

    /// Aggregate DRAM traffic implied by the running workloads.
    [[nodiscard]] Bandwidth current_dram_traffic() const;

    /// Achieved read bandwidths at the current operating point (what the
    /// membench tool observes).
    [[nodiscard]] Bandwidth achieved_l3_bandwidth() const;
    [[nodiscard]] Bandwidth achieved_dram_bandwidth() const;

private:
    friend struct SocketTestPeer;  // turns off rate reuse and steady ticks in twins

    static constexpr std::size_t kMaxCores = pcu::PcuController::kMaxCores;
    /// The distinct modulated (workload, threading) pairs that run on some
    /// core, each with its cdyn when the rates were derived or the PCU
    /// inputs gathered. A modulated cdyn moves with time; one evaluation per
    /// pair covers every core that runs it.
    struct ModulatedLoads {
        struct Load {
            const workloads::Workload* workload = nullptr;
            bool ht = false;
            double cdyn = 0.0;
        };
        std::array<Load, kMaxCores> loads{};
        std::size_t count = 0;

        /// Records a running core's load and its cdyn, unless the load is
        /// constant or already recorded.
        void note(const workloads::Workload& w, bool ht, double cdyn);
        /// Whether each recorded pair's cdyn at `t` has the recorded bits.
        [[nodiscard]] bool unchanged_at(Time t) const;
    };
    struct CoreRates {
        // The core's grant when the rates were derived (voltage with its
        // silicon variation applied).
        double hz = 0.0;
        double volts = 0.0;
        double throughput_factor = 0.0;
        // Per loaded C0 core: ipc x throughput_factor and the stall fraction.
        double instructions_per_cycle = 0.0;
        double stall_fraction = 0.0;
    };
    /// What advance_to() integrates per second at one operating point:
    /// the grants it was derived at, then the rates.
    struct Rates {
        std::array<CoreRates, kMaxCores> cores{};
        double uncore_hz = 0.0;
        double uncore_volts = 0.0;
        bool uncore_halted = false;
        Power package;
        Power dram;
        rapl::ActivityVector activity;
        cstates::PackageCState package_state = cstates::PackageCState::PC0;
        bool system_active = false;  // the hint package_state resolved under
        ModulatedLoads modulated;
        bool valid = false;
    };

    /// Derive `r` for the interval starting at last_update_, with the same
    /// operations in the same core order as every earlier integration.
    void recompute_rates(Rates& r);
    /// Whether valid `r` still holds for an interval starting at
    /// last_update_: the hint and every modulated cdyn are unchanged.
    [[nodiscard]] bool rates_current(const Rates& r) const;
    /// Whether `r` was derived at the current grants.
    [[nodiscard]] bool at_current_grants(const Rates& r) const;
    /// A core's state, workload or threading changed: no rates hold.
    void invalidate_rates() { rates_[0].valid = rates_[1].valid = false; }
    /// Refill pcu_in_ from the current state (modulation evaluated at `now`)
    /// and record in gathered_ what the refill read besides the socket.
    void fill_pcu_inputs(Time now, bool system_active, Frequency fastest_system_core);
    /// Whether pcu_in_ still holds every input a tick at `now` would gather.
    [[nodiscard]] bool pcu_inputs_held(Time now, bool system_active,
                                       Frequency fastest_system_core) const;
    /// Moves a core to `state`, keeping active_cores_ in step.
    void set_core_state(SimCore& c, cstates::CState state) {
        active_cores_ -= c.state == cstates::CState::C0 ? 1 : 0;
        active_cores_ += state == cstates::CState::C0 ? 1 : 0;
        c.state = state;
    }
    [[nodiscard]] mem::ConcurrencyConfig concurrency() const;
    // The per-core pieces shared by recompute_rates() and the current_*()
    // readers, so both produce bit-identical sums.
    [[nodiscard]] double cdyn_at(const SimCore& c, Time t) const;
    [[nodiscard]] Power core_power_for(const SimCore& c, double cdyn) const;
    /// Uncore power for the running cores' summed uncore traffic.
    [[nodiscard]] Power uncore_power_for(double traffic_sum) const;
    /// DRAM demand of one loaded C0 core (GB/s).
    [[nodiscard]] double dram_demand_gbs(const SimCore& c) const;
    /// Clamp a DRAM demand to the socket's peak read bandwidth.
    [[nodiscard]] Bandwidth dram_traffic_for(double demand_gbs) const {
        return Bandwidth::gb_per_sec(std::min(demand_gbs, dram_peak_gbs_));
    }

    const arch::Sku* sku_;
    unsigned id_;
    std::string name_;
    arch::DieTopology topo_;
    pcu::PcuController pcu_;
    rapl::RaplPackage rapl_;
    mem::BandwidthModel bw_model_;
    double dram_peak_gbs_;  // all cores, two threads, nominal clock, max uncore
    std::vector<SimCore> cores_;
    msr::EpbPolicy epb_ = msr::EpbPolicy::Balanced;
    bool turbo_enabled_ = true;
    std::uint64_t uncore_ratio_limit_raw_ = 0;
    bool hwp_enabled_ = false;
    std::uint64_t hwp_request_pkg_raw_ = 0;

    Frequency uncore_freq_;
    Voltage uncore_voltage_;
    bool uncore_halted_ = false;
    std::vector<Frequency> die_uncore_;
    double uncore_cycles_ = 0.0;
    double pkg_c3_residency_ = 0.0;
    double pkg_c6_residency_ = 0.0;
    bool system_active_hint_ = false;
    unsigned active_cores_ = 0;  // cores in C0
    Time last_update_;

    // Two rate sets, for the two operating points a dither alternates
    // between: rates_[live_] is in use, the other is the point last left.
    // apply_grants() swaps them, and invalidate_rates() drops both.
    std::array<Rates, 2> rates_{};
    unsigned live_ = 0;
    bool reuse_rates_ = true;  // false: every advance_to() re-derives

    // The PCU input epoch. A workload's fields other than its cdyn stay
    // fixed while it runs (rates_current() relies on this too), so the
    // inputs a tick gathers move only with a bump, a moved argument, a
    // MSR_PKG_POWER_LIMIT write (RaplPackage takes it) or a modulated cdyn.
    std::uint64_t pcu_epoch_ = 0;
    /// What the last gathered tick read besides the socket's own state.
    struct Gathered {
        std::uint64_t epoch = ~std::uint64_t{0};  // no tick gathered yet
        bool system_active = false;
        double fastest_system_hz = 0.0;
        std::uint64_t power_limit_raw = 0;
        ModulatedLoads modulated;
    };
    Gathered gathered_;
    bool steady_ticks_ = true;  // false: every tick gathers and fully evaluates

    // PCU buffers, sized at construction: a steady-state tick allocates
    // nothing.
    pcu::PcuInputs pcu_in_;
    pcu::PcuOutputs tick_;    // the last pcu_tick()'s grants
    pcu::PcuOutputs staged_;  // the pending grant, applied after the switch
};

}  // namespace hsw::core
