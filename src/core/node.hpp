// The simulated dual-socket compute node -- the library's main entry point.
//
// A Node assembles sockets (cores + PCU + RAPL), the MSR file, the AC-side
// model with an LMG450 meter, and the event schedule (per-socket PCU
// opportunity grids, RAPL counter refresh). Tool code observes the machine
// exclusively through the MSR file and the meter, like on real hardware.
//
// Typical use:
//   core::Node node;                                  // the paper's system
//   node.set_all_workloads(&workloads::firestarter(), 2);
//   node.request_turbo_all();
//   node.run_for(Time::sec(5));
//   auto watts = node.rapl_power_over(Time::sec(4));  // RAPL pkg+DRAM
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/socket.hpp"
#include "cstates/wake_latency.hpp"
#include "pcu/hwp.hpp"
#include "meter/lmg450.hpp"
#include "msr/msr_file.hpp"
#include "power/psu.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace hsw::core {

struct NodeConfig {
    const arch::Sku* sku = nullptr;   // default: Xeon E5-2680 v3
    unsigned sockets = 2;
    bool turbo_enabled = true;
    msr::EpbPolicy epb = msr::EpbPolicy::Balanced;
    rapl::DramMode dram_mode = rapl::DramMode::Mode1;
    std::uint64_t seed = 0xC0FFEE;
    bool trace_enabled = false;
    /// C-state parked cores default to (C6 = deepest, as an idle OS would).
    cstates::CState park_state = cstates::CState::C6;
};

class Node {
public:
    explicit Node(NodeConfig cfg = {});
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    // --- simulation control ---
    [[nodiscard]] util::Time now() const { return sim_.now(); }
    void run_for(util::Time dt);
    void run_until(util::Time t);
    [[nodiscard]] sim::Simulator& simulator() { return sim_; }
    [[nodiscard]] sim::Trace& trace() { return trace_; }

    // --- topology ---
    [[nodiscard]] unsigned socket_count() const { return static_cast<unsigned>(sockets_.size()); }
    [[nodiscard]] unsigned cores_per_socket() const { return sku_->cores; }
    [[nodiscard]] unsigned cpu_count() const { return socket_count() * cores_per_socket(); }
    [[nodiscard]] unsigned cpu_id(unsigned socket, unsigned core) const {
        return socket * cores_per_socket() + core;
    }
    [[nodiscard]] unsigned socket_of(unsigned cpu) const { return cpu / cores_per_socket(); }
    [[nodiscard]] unsigned core_of(unsigned cpu) const { return cpu % cores_per_socket(); }
    [[nodiscard]] const arch::Sku& sku() const { return *sku_; }
    [[nodiscard]] arch::Generation generation() const { return sku_->generation; }
    [[nodiscard]] Socket& socket(unsigned id) { return *sockets_[id]; }
    [[nodiscard]] const Socket& socket(unsigned id) const { return *sockets_[id]; }

    // --- workload control ---
    /// Run `w` on the core; `threads` = 1 or 2 (Hyper-Threading). Wakes the
    /// core into C0 immediately (no latency; use wake() to measure that).
    void set_workload(unsigned cpu, const workloads::Workload* w, unsigned threads = 1);
    /// Park the core in the config's park state.
    void clear_workload(unsigned cpu);
    void set_all_workloads(const workloads::Workload* w, unsigned threads = 1);
    void clear_all_workloads();

    // --- p-state control (through the MSR path, like cpufreq) ---
    void set_pstate(unsigned cpu, util::Frequency f);
    void set_pstate_all(util::Frequency f);
    /// Request the turbo range (ratio nominal+1) on all cpus.
    void request_turbo_all();
    void set_epb(msr::EpbPolicy p);
    void set_turbo_enabled(bool on);

    // --- HWP control (no-ops unless the generation's backend is
    // HWP-capable; see platform::PlatformBackend::hwp_capable()) ---
    /// Whether the simulated part exposes the HWP MSR surface at all.
    [[nodiscard]] bool hwp_capable() const;
    /// Write MSR_PM_ENABLE bit 0 on every package (one-way on real
    /// hardware; the model allows disabling for A/B experiments).
    void enable_hwp(bool on = true);
    /// Program IA32_HWP_REQUEST for one cpu.
    void set_hwp_request(unsigned cpu, const pcu::HwpRequest& req);
    /// Program the same IA32_HWP_REQUEST on every cpu.
    void set_hwp_request_all(const pcu::HwpRequest& req);

    // --- C-state control ---
    void park(unsigned cpu, cstates::CState state);
    /// Wake `wakee` via an IPI from `waker`; returns the sampled transition
    /// latency (the wakee reaches C0 after it).
    util::Time wake(unsigned waker_cpu, unsigned wakee_cpu);
    [[nodiscard]] cstates::CState core_state(unsigned cpu) const;
    /// Package state of a socket under the system-wide activity rule.
    [[nodiscard]] cstates::PackageCState package_state(unsigned socket) const;

    // --- observation ---
    [[nodiscard]] msr::MsrFile& msrs() { return msrs_; }
    [[nodiscard]] const msr::MsrFile& msrs() const { return msrs_; }
    [[nodiscard]] util::Frequency core_frequency(unsigned cpu) const;
    [[nodiscard]] util::Frequency uncore_frequency(unsigned socket) const;
    /// Instantaneous true wall power (PSU model over both RAPL domains).
    [[nodiscard]] util::Power ac_power();
    [[nodiscard]] meter::Lmg450& meter() { return *meter_; }
    /// Run the simulation for `dt` and return the average RAPL package+DRAM
    /// power over that window (sum of both sockets), read via the MSRs.
    [[nodiscard]] util::Power rapl_power_over(util::Time dt);
    /// Same, split per domain for one socket.
    struct RaplWindow {
        util::Power package;
        util::Power dram;
    };
    [[nodiscard]] RaplWindow rapl_window(unsigned socket, util::Time dt);
    /// True (model ground-truth) power, for validation tests.
    [[nodiscard]] util::Power true_node_dc_power();

    [[nodiscard]] const cstates::WakeLatencyModel& wake_model() const { return wake_model_; }
    [[nodiscard]] util::Rng& rng() { return rng_; }

    /// Bring every socket's bookkeeping up to now() (called internally
    /// before reads/mutations; public for tests).
    void sync();

private:
    void install_msrs();
    void schedule_pcu_grid(unsigned socket_id, util::Time first);
    /// One opportunity-grid evaluation of `socket` at now().
    [[nodiscard]] const pcu::PcuOutputs* pcu_tick(Socket& socket);
    [[nodiscard]] bool any_core_active_in_system() const;
    [[nodiscard]] util::Frequency fastest_system_core() const;
    [[nodiscard]] double read_counter(unsigned cpu, unsigned which) const;

    NodeConfig cfg_;
    const arch::Sku* sku_;
    sim::Simulator sim_;
    sim::Trace trace_;
    msr::MsrFile msrs_;
    util::Rng rng_;
    std::vector<std::unique_ptr<Socket>> sockets_;
    power::NodeAcModel ac_model_;
    std::unique_ptr<meter::Lmg450> meter_;
    cstates::WakeLatencyModel wake_model_;
};

}  // namespace hsw::core
