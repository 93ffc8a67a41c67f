#include "core/socket.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <string>

#include "arch/calibration.hpp"
#include "platform/registry.hpp"
#include "power/power_model.hpp"
#include "util/rng.hpp"

namespace hsw::core {

namespace cal = hsw::arch::cal;

Socket::Socket(const arch::Sku& sku, unsigned socket_id, bool turbo_enabled,
               rapl::DramMode dram_mode, std::uint64_t seed)
    : sku_{&sku},
      id_{socket_id},
      name_{"socket" + std::to_string(socket_id)},
      topo_{arch::make_die_topology(sku.cores)},
      pcu_{sku, socket_id, &platform::backend_for(sku.generation).pcu_policy()},
      rapl_{sku.generation, socket_id, dram_mode, seed},
      bw_model_{sku.generation, sku.cores},
      dram_peak_gbs_{bw_model_
                         .dram_read(mem::ConcurrencyConfig{sku.cores, 2},
                                    sku.nominal_frequency, sku.uncore_max)
                         .as_gb_per_sec()},
      cores_(sku.cores),
      turbo_enabled_{turbo_enabled},
      uncore_freq_{sku.uncore_min},
      uncore_voltage_{power::VfCurve::uncore_curve(socket_id).voltage_for(sku.uncore_min)} {
    util::Rng rng{seed * 131 + 7};
    for (auto& c : cores_) {
        c.requested_ratio = sku.nominal_frequency.ratio();
        c.frequency = sku.min_frequency;
        // Per-core silicon variation (Section III: core voltages for a
        // given p-state differ), clamped to +-2.5 %.
        c.vf_factor = std::clamp(1.0 + rng.normal(0.0, cal::kPerCoreVoltageSigma),
                                 0.975, 1.025);
        c.voltage = power::VfCurve::core_curve(socket_id).voltage_for(sku.min_frequency) *
                    c.vf_factor;
    }
}

void Socket::fill_pcu_inputs(Time now, bool system_active,
                             Frequency fastest_system_core) {
    pcu::PcuInputs& in = pcu_in_;
    in.cores.resize(cores_.size());
    double traffic = 0.0;
    double current_intensity = 0.0;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const SimCore& c = cores_[i];
        auto& ci = in.cores[i];
        ci = pcu::CoreInputs{.state = c.state,
                             .requested_ratio = c.requested_ratio,
                             .hwp_request_raw = c.hwp_request_raw};
        if (c.state == cstates::CState::C0 && c.workload != nullptr) {
            const bool ht = c.threads >= 2;
            ci.avx_fraction = c.workload->avx_fraction;
            ci.avx512_fraction = c.workload->avx512_fraction;
            ci.stall_fraction = c.workload->stall_fraction;
            ci.cdyn_utilization = c.workload->cdyn_at(now, ht);
            traffic += c.workload->uncore_traffic;
            current_intensity = std::max(current_intensity, c.workload->current_intensity);
        }
    }
    in.epb = epb_;
    in.turbo_enabled = turbo_enabled_;
    in.uncore_traffic = std::min(1.0, traffic / static_cast<double>(cores_.size()));
    in.current_intensity = current_intensity;
    in.system_active = system_active;
    in.fastest_system_core = fastest_system_core;
    const auto limit = rapl_.active_power_limit();
    in.power_limit_watts = limit ? limit->as_watts() : 0.0;
    in.uncore_ratio_limit_raw = uncore_ratio_limit_raw_;
    in.hwp_enabled = hwp_enabled_;
    in.hwp_request_pkg_raw = hwp_request_pkg_raw_;
}

// hsw:hot-path -- runs for every socket on every sync (several per PCU tick).
void Socket::advance_to(Time now) {
    const Time dt = now - last_update_;
    if (dt <= Time::zero()) {
        last_update_ = now;
        return;
    }
    Rates& r = rates_[live_];
    if (!r.valid || !rates_current(r)) recompute_rates(r);
    const double seconds = dt.as_seconds();
    const double tsc_ticks = sku_->nominal_frequency.as_hz() * seconds;

    for (std::size_t i = 0; i < cores_.size(); ++i) {
        SimCore& c = cores_[i];
        if (c.state == cstates::CState::C3) c.c3_residency += tsc_ticks;
        if (c.state == cstates::CState::C6) c.c6_residency += tsc_ticks;
        if (c.state != cstates::CState::C0) continue;

        const CoreRates& cr = r.cores[i];
        const double cycles = cr.hz * seconds;
        c.aperf += cycles;
        c.core_cycles += cycles;
        c.mperf += tsc_ticks;
        if (c.workload == nullptr) continue;
        c.instructions += cr.instructions_per_cycle * cycles;
        c.stall_cycles += cr.stall_fraction * cycles;
    }
    if (!uncore_halted_) uncore_cycles_ += uncore_freq_.as_hz() * seconds;
    if (r.package_state == cstates::PackageCState::PC3) pkg_c3_residency_ += tsc_ticks;
    if (r.package_state == cstates::PackageCState::PC6) pkg_c6_residency_ += tsc_ticks;

    // The estimator draws its noise here, once per integration, whether or
    // not the rates changed.
    rapl_.integrate(r.package, r.dram, r.activity, dt);
    last_update_ = now;
}

bool Socket::rates_current(const Rates& r) const {
    if (r.system_active != system_active_hint_) return false;
    // A modulated load's cdyn moves with time; one evaluation per distinct
    // (workload, threading) pair covers every core that runs it.
    for (std::size_t k = 0; k < r.modulated_count; ++k) {
        const ModulatedLoad& m = r.modulated[k];
        if (std::bit_cast<std::uint64_t>(m.workload->cdyn_at(last_update_, m.ht)) !=
            std::bit_cast<std::uint64_t>(m.cdyn)) {
            return false;
        }
    }
    return true;
}

void Socket::recompute_rates(Rates& r) {
    const bool uncore_running = uncore_freq_ > Frequency::zero();

    // One pass over the cores in core order, so every sum is bit-identical
    // to evaluating current_package_power() and current_dram_traffic().
    Power pkg = power::socket_static_power();
    double traffic = 0.0;
    double dram_demand = 0.0;
    rapl::ActivityVector av;
    r.modulated_count = 0;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const SimCore& c = cores_[i];
        CoreRates& cr = r.cores[i];
        const double f = c.frequency.as_hz();
        cr.hz = f;
        cr.volts = c.voltage.as_volts();
        cr.throughput_factor = c.throughput_factor;

        const double cdyn = cdyn_at(c, last_update_);
        pkg += core_power_for(c, cdyn);
        if (c.state != cstates::CState::C0 || c.workload == nullptr) continue;

        const bool ht = c.threads >= 2;
        if (c.workload->modulation != workloads::Modulation::Constant) {
            const std::span seen{r.modulated.data(), r.modulated_count};
            if (std::none_of(seen.begin(), seen.end(), [&](const ModulatedLoad& m) {
                    return m.workload == c.workload && m.ht == ht;
                })) {
                r.modulated[r.modulated_count++] = {c.workload, ht, cdyn};
            }
        }
        const double ratio = uncore_running ? c.frequency / uncore_freq_ : 1.0;
        const double ipc = c.workload->ipc(ratio, ht);
        cr.instructions_per_cycle = ipc * c.throughput_factor;
        cr.stall_fraction = c.workload->stall_fraction;

        traffic += c.workload->uncore_traffic;
        dram_demand += dram_demand_gbs(c);

        av.core_cycles_per_s += f;
        av.uops_per_s += ipc * f * 1.12;  // fused-uop expansion estimate
        av.avx_ops_per_s += ipc * f * c.workload->avx_fraction;
    }
    if (!uncore_halted_) {
        pkg += uncore_power_for(traffic);
        av.uncore_cycles_per_s = uncore_freq_.as_hz();
    }
    const Bandwidth dram_traffic = dram_traffic_for(dram_demand);
    av.dram_gbs = dram_traffic.as_gb_per_sec();

    r.uncore_hz = uncore_freq_.as_hz();
    r.uncore_volts = uncore_voltage_.as_volts();
    r.uncore_halted = uncore_halted_;
    r.package = pkg;
    r.dram = power::dram_power(dram_traffic);
    r.activity = av;
    r.package_state = package_state(system_active_hint_);
    r.system_active = system_active_hint_;
    r.valid = reuse_rates_;
}

bool Socket::at_current_grants(const Rates& r) const {
    // Bit compares: a grant equal in value but not in bits (-0.0) re-derives.
    auto same = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    };
    if (!same(r.uncore_hz, uncore_freq_.as_hz()) ||
        !same(r.uncore_volts, uncore_voltage_.as_volts()) || r.uncore_halted != uncore_halted_) {
        return false;
    }
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const SimCore& c = cores_[i];
        const CoreRates& cr = r.cores[i];
        if (!same(cr.hz, c.frequency.as_hz()) || !same(cr.volts, c.voltage.as_volts()) ||
            !same(cr.throughput_factor, c.throughput_factor)) {
            return false;
        }
    }
    return true;
}
// hsw:end-hot-path

const pcu::PcuOutputs* Socket::pcu_tick(Time now, bool system_active,
                                        Frequency fastest_system_core) {
    fill_pcu_inputs(now, system_active, fastest_system_core);
    pcu_.evaluate(pcu_in_, now, tick_);

    // Suppress the apply event when nothing changes (common in steady state).
    bool changed = tick_.uncore_frequency != uncore_freq_ ||
                   tick_.uncore_clock_halted != uncore_halted_;
    for (std::size_t i = 0; i < cores_.size() && !changed; ++i) {
        changed = tick_.cores[i].frequency != cores_[i].frequency ||
                  tick_.cores[i].throughput_factor != cores_[i].throughput_factor;
    }
    return changed ? &tick_ : nullptr;
}

void Socket::apply_grants(const pcu::PcuOutputs& out) {
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        cores_[i].frequency = out.cores[i].frequency;
        cores_[i].voltage = out.cores[i].voltage * cores_[i].vf_factor;
        cores_[i].avx_licensed = out.cores[i].avx_licensed;
        cores_[i].license_level = out.cores[i].license_level;
        cores_[i].throughput_factor = out.cores[i].throughput_factor;
    }
    uncore_freq_ = out.uncore_frequency;
    uncore_voltage_ = out.uncore_voltage;
    uncore_halted_ = out.uncore_clock_halted;
    die_uncore_ = out.die_uncore_frequency;

    // The rates in use become the spare; the old spare serves if a dither
    // has come back to its point.
    live_ ^= 1;
    Rates& r = rates_[live_];
    r.valid = r.valid && at_current_grants(r);
}

void Socket::run_workload(unsigned core, const workloads::Workload* w, unsigned threads) {
    invalidate_rates();
    SimCore& c = cores_[core];
    c.workload = w;
    c.threads = std::clamp(threads, 1u, 2u);
    c.state = cstates::CState::C0;
}

void Socket::park(unsigned core, cstates::CState state) {
    invalidate_rates();
    cores_[core].workload = nullptr;
    cores_[core].state = state;
}

void Socket::wake(unsigned core) {
    invalidate_rates();
    cores_[core].state = cstates::CState::C0;
}

cstates::PackageCState Socket::package_state(bool any_core_active_in_system) const {
    std::array<cstates::CState, pcu::PcuController::kMaxCores> states{};
    for (std::size_t i = 0; i < cores_.size(); ++i) states[i] = cores_[i].state;
    return cstates::resolve_package_state(std::span{states.data(), cores_.size()},
                                          any_core_active_in_system);
}

Frequency Socket::fastest_active_core() const {
    Frequency best = Frequency::zero();
    for (const SimCore& c : cores_) {
        if (c.state == cstates::CState::C0) best = std::max(best, c.frequency);
    }
    return best;
}

bool Socket::any_core_active() const {
    return std::any_of(cores_.begin(), cores_.end(), [](const SimCore& c) {
        return c.state == cstates::CState::C0;
    });
}

double Socket::cdyn_at(const SimCore& c, Time t) const {
    return (c.state == cstates::CState::C0 && c.workload != nullptr)
               ? c.workload->cdyn_at(t, c.threads >= 2)
               : 0.0;
}

Power Socket::core_power_for(const SimCore& c, double cdyn) const {
    const power::CoreActivity activity{
        .cdyn_utilization = cdyn,
        .clock_running = c.state == cstates::CState::C0,
        .power_gated = cstates::power_gated(c.state),
    };
    return power::core_power(activity, c.voltage, c.frequency);
}

Power Socket::uncore_power_for(double traffic_sum) const {
    const double traffic = std::min(1.0, traffic_sum / static_cast<double>(cores_.size()));
    return power::uncore_power(traffic, uncore_voltage_, uncore_freq_);
}

double Socket::dram_demand_gbs(const SimCore& c) const {
    const double scale = c.frequency / sku_->nominal_frequency;
    const double ht = c.threads >= 2 ? 1.15 : 1.0;
    return c.workload->dram_gbs_per_core * scale * ht;
}

Power Socket::current_package_power(Time now) const {
    Power total = power::socket_static_power();
    double traffic = 0.0;
    for (const SimCore& c : cores_) {
        total += core_power_for(c, cdyn_at(c, now));
        if (c.state == cstates::CState::C0 && c.workload != nullptr) {
            traffic += c.workload->uncore_traffic;
        }
    }
    if (!uncore_halted_) total += uncore_power_for(traffic);
    return total;
}

Bandwidth Socket::current_dram_traffic() const {
    double demand = 0.0;
    for (const SimCore& c : cores_) {
        if (c.state != cstates::CState::C0 || c.workload == nullptr) continue;
        demand += dram_demand_gbs(c);
    }
    return dram_traffic_for(demand);
}

Power Socket::current_dram_power() const {
    return power::dram_power(current_dram_traffic());
}

Bandwidth Socket::achieved_l3_bandwidth() const {
    const Frequency f = fastest_active_core();
    if (f == Frequency::zero()) return Bandwidth::gb_per_sec(0.0);
    return bw_model_.l3_read(concurrency(), f, uncore_freq_);
}

Bandwidth Socket::achieved_dram_bandwidth() const {
    const Frequency f = fastest_active_core();
    if (f == Frequency::zero()) return Bandwidth::gb_per_sec(0.0);
    return bw_model_.dram_read(concurrency(), f, uncore_freq_);
}

mem::ConcurrencyConfig Socket::concurrency() const {
    mem::ConcurrencyConfig cfg{0, 1};
    for (const SimCore& c : cores_) {
        if (c.state != cstates::CState::C0 || c.workload == nullptr) continue;
        ++cfg.cores;
        cfg.threads_per_core = std::max(cfg.threads_per_core, c.threads);
    }
    cfg.cores = std::max(cfg.cores, 1u);
    return cfg;
}

}  // namespace hsw::core
