#include "core/node.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "arch/calibration.hpp"
#include "msr/addresses.hpp"
#include "pcu/hwp.hpp"
#include "platform/registry.hpp"

namespace hsw::core {

namespace cal = hsw::arch::cal;
using util::Frequency;
using util::Power;
using util::Time;

Node::Node(NodeConfig cfg)
    : cfg_{cfg},
      sku_{cfg.sku != nullptr ? cfg.sku : &arch::xeon_e5_2680_v3()},
      rng_{cfg.seed},
      ac_model_{sku_->generation},
      wake_model_{sku_->generation} {
    trace_.enable(cfg.trace_enabled);

    for (unsigned s = 0; s < cfg_.sockets; ++s) {
        sockets_.push_back(std::make_unique<Socket>(*sku_, s, cfg_.turbo_enabled,
                                                    cfg_.dram_mode,
                                                    cfg_.seed * 31 + s + 1));
        sockets_.back()->set_epb(cfg_.epb);
    }

    meter_ = std::make_unique<meter::Lmg450>([this] { return ac_power(); },
                                             cfg_.seed * 17 + 5);

    install_msrs();

    // Per-socket PCU opportunity grids with independent phases (cores on
    // the same socket switch together; sockets are independent -- the
    // Section VI-A parallel-FTaLaT observation).
    const bool deferred = arch::traits(sku_->generation).deferred_pstate_grid;
    if (deferred) {
        for (unsigned s = 0; s < cfg_.sockets; ++s) {
            const auto phase_ns = static_cast<std::int64_t>(
                rng_.uniform(0.0, cal::kPstateOpportunityPeriod.as_us()) * 1000.0);
            schedule_pcu_grid(s, Time::ns(phase_ns));
        }
    } else {
        // Legacy parts still evaluate periodically (turbo/TDP control), but
        // p-state requests additionally trigger immediate evaluations from
        // the PERF_CTL write handler.
        for (unsigned s = 0; s < cfg_.sockets; ++s) {
            schedule_pcu_grid(s, Time::us(50) * (s + 1));
        }
    }

    // RAPL counter refresh cadence (~1 ms).
    for (unsigned s = 0; s < cfg_.sockets; ++s) {
        sim_.schedule_periodic(Time::us(900) + Time::us(40) * s, cal::kRaplUpdatePeriod,
                               [this, s](Time) {
                                   sockets_[s]->advance_to(sim_.now());
                                   sockets_[s]->rapl().publish();
                               });
    }

    // The LMG450 samples the wall power at 20 Sa/s continuously.
    sim_.schedule_periodic(cal::kMeterSamplePeriod, cal::kMeterSamplePeriod,
                           [this](Time) { meter_->sample(sim_.now()); });
}

void Node::schedule_pcu_grid(unsigned socket_id, Time first) {
    sim_.schedule_at(first, [this, socket_id] {
        const Time now = sim_.now();
        sync();
        Socket& socket = *sockets_[socket_id];
        trace_.record(now, "pcu", socket.name(), "opportunity");
        if (pcu_tick(socket) != nullptr) {
            // The grant waits in the socket, so the apply event captures
            // only (this, socket_id) and stays in the callback's inline
            // buffer.
            socket.stage_grants();
            const double switch_us = rng_.uniform(cal::kPstateSwitchTimeMin.as_us(),
                                                  cal::kPstateSwitchTimeMax.as_us());
            auto apply = [this, socket_id] {
                sync();
                Socket& s = *sockets_[socket_id];
                s.apply_staged_grants();
                trace_.record(sim_.now(), "pstate", s.name(), "change complete",
                              s.cores().front().frequency.as_ghz());
            };
            static_assert(sim::Simulator::Callback::fits_inline<decltype(apply)>);
            sim_.schedule_after(Time::from_us(switch_us), std::move(apply));
        }
        // Next opportunity: ~500 us later with a little grid jitter.
        const double jitter_us = rng_.uniform(-cal::kPstateOpportunityJitter.as_us(),
                                              cal::kPstateOpportunityJitter.as_us());
        schedule_pcu_grid(socket_id,
                          now + cal::kPstateOpportunityPeriod + Time::from_us(jitter_us));
    });
}

void Node::sync() {
    const Time now = sim_.now();
    const bool system_active = any_core_active_in_system();
    for (auto& s : sockets_) {
        s->set_system_active_hint(system_active);
        s->advance_to(now);
    }
}

void Node::run_for(Time dt) { run_until(sim_.now() + dt); }

void Node::run_until(Time t) {
    sim_.run_until(t);
    sync();
}

const pcu::PcuOutputs* Node::pcu_tick(Socket& socket) {
    // Only a passive socket's uncore rule reads the system's fastest core.
    const Frequency fastest =
        socket.any_core_active() ? Frequency::zero() : fastest_system_core();
    return socket.pcu_tick(sim_.now(), any_core_active_in_system(), fastest);
}

bool Node::any_core_active_in_system() const {
    return std::any_of(sockets_.begin(), sockets_.end(),
                       [](const auto& s) { return s->any_core_active(); });
}

Frequency Node::fastest_system_core() const {
    Frequency best = Frequency::zero();
    for (const auto& s : sockets_) best = std::max(best, s->fastest_active_core());
    return best;
}

// --- MSR wiring -----------------------------------------------------------

void Node::install_msrs() {
    auto core_ref = [this](unsigned cpu) -> const SimCore& {
        return sockets_[socket_of(cpu)]->cores()[core_of(cpu)];
    };

    auto counter = [this, core_ref](double SimCore::*member) {
        return [this, core_ref, member](unsigned cpu) {
            sync();
            return static_cast<std::uint64_t>(core_ref(cpu).*member);
        };
    };

    msrs_.register_msr(msr::IA32_APERF, counter(&SimCore::aperf));
    msrs_.register_msr(msr::IA32_MPERF, counter(&SimCore::mperf));
    msrs_.register_msr(msr::IA32_FIXED_CTR0, counter(&SimCore::instructions));
    msrs_.register_msr(msr::IA32_FIXED_CTR1, counter(&SimCore::core_cycles));
    msrs_.register_msr(msr::IA32_FIXED_CTR2, counter(&SimCore::mperf));
    msrs_.register_msr(msr::MSR_STALL_CYCLES, counter(&SimCore::stall_cycles));

    // P-state request/status. The request is latched; hardware acts on it
    // at the next PCU opportunity (Haswell-EP) or near-immediately (older
    // generations and Haswell-HE).
    msrs_.register_msr(
        msr::IA32_PERF_CTL,
        [this, core_ref](unsigned cpu) {
            return static_cast<std::uint64_t>(core_ref(cpu).requested_ratio) << 8;
        },
        [this](unsigned cpu, std::uint64_t value) {
            sync();
            const auto ratio = static_cast<unsigned>((value >> 8) & 0xFF);
            sockets_[socket_of(cpu)]->set_requested_ratio(core_of(cpu), ratio);
            trace_.record(sim_.now(), "pstate", "cpu" + std::to_string(cpu),
                          "request", static_cast<double>(ratio) / 10.0);
            if (!arch::traits(sku_->generation).deferred_pstate_grid) {
                // Legacy behaviour: the request is executed immediately,
                // paying only the switching time.
                const unsigned sid = socket_of(cpu);
                sim_.schedule_after(cal::kLegacyPstateSwitchTime, [this, sid] {
                    sync();
                    Socket& socket = *sockets_[sid];
                    if (const auto* out = pcu_tick(socket)) socket.apply_grants(*out);
                });
            }
        });
    msrs_.register_msr(msr::IA32_PERF_STATUS, [this, core_ref](unsigned cpu) {
        sync();
        const SimCore& c = core_ref(cpu);
        // Bits 15:8 current ratio; bits 47:32 current voltage in 2^-13 V
        // units (the field the paper's Section III voltage observation is
        // read from).
        const auto vid = static_cast<std::uint64_t>(c.voltage.as_volts() * 8192.0);
        return (vid << 32) | (static_cast<std::uint64_t>(c.frequency.ratio()) << 8);
    });

    // C-state residency counters (TSC-rate ticks).
    msrs_.register_msr(msr::MSR_CORE_C3_RESIDENCY, counter(&SimCore::c3_residency));
    msrs_.register_msr(msr::MSR_CORE_C6_RESIDENCY, counter(&SimCore::c6_residency));
    msrs_.register_msr(msr::MSR_PKG_C3_RESIDENCY, [this](unsigned cpu) {
        sync();
        return static_cast<std::uint64_t>(sockets_[socket_of(cpu)]->pkg_c3_residency());
    });
    msrs_.register_msr(msr::MSR_PKG_C6_RESIDENCY, [this](unsigned cpu) {
        sync();
        return static_cast<std::uint64_t>(sockets_[socket_of(cpu)]->pkg_c6_residency());
    });

    // EPB: per-thread register; the PCU consumes the socket-wide policy.
    msrs_.register_msr(
        msr::IA32_ENERGY_PERF_BIAS,
        [this](unsigned cpu) {
            return msr::encode_epb(sockets_[socket_of(cpu)]->epb());
        },
        [this](unsigned cpu, std::uint64_t value) {
            sockets_[socket_of(cpu)]->set_epb(msr::decode_epb(value));
        });

    // Uncore fixed counter (UBOXFIX) and its control register.
    msrs_.register_msr(msr::U_MSR_PMON_UCLK_FIXED_CTR, [this](unsigned cpu) {
        sync();
        return static_cast<std::uint64_t>(sockets_[socket_of(cpu)]->uncore_cycles());
    });
    msrs_.register_storage(msr::U_MSR_PMON_UCLK_FIXED_CTL);

    // UNCORE_RATIO_LIMIT: per-package max/min ratio clamp consumed by the
    // UFS policy. The paper notes the register existed but was undocumented
    // (Section II-D); the encoding became public with later parts.
    msrs_.register_msr(
        msr::MSR_UNCORE_RATIO_LIMIT,
        [this](unsigned cpu) { return sockets_[socket_of(cpu)]->uncore_ratio_limit(); },
        [this](unsigned cpu, std::uint64_t value) {
            sync();
            sockets_[socket_of(cpu)]->set_uncore_ratio_limit(value);
        });

    // HWP surface (Skylake-SP+). The registers only exist on HWP-capable
    // parts; reading them on older generations faults like real hardware
    // (MsrFile reports an unknown register).
    if (platform::backend_for(sku_->generation).hwp_capable()) {
        // MSR_PM_ENABLE: package scoped; bit 0 switches the socket from
        // PERF_CTL-driven to autonomous HWP operation.
        msrs_.register_msr(
            msr::MSR_PM_ENABLE,
            [this](unsigned cpu) {
                return static_cast<std::uint64_t>(
                    sockets_[socket_of(cpu)]->hwp_enabled() ? 1 : 0);
            },
            [this](unsigned cpu, std::uint64_t value) {
                sync();
                sockets_[socket_of(cpu)]->set_hwp_enabled((value & 1) != 0);
                trace_.record(sim_.now(), "hwp", sockets_[socket_of(cpu)]->name(),
                              (value & 1) != 0 ? "enable" : "disable");
            });
        msrs_.register_msr(msr::IA32_HWP_CAPABILITIES, [this](unsigned) {
            return pcu::encode_hwp_capabilities(pcu::capabilities_for(*sku_));
        });
        msrs_.register_msr(
            msr::IA32_HWP_REQUEST_PKG,
            [this](unsigned cpu) { return sockets_[socket_of(cpu)]->hwp_request_pkg(); },
            [this](unsigned cpu, std::uint64_t value) {
                sync();
                sockets_[socket_of(cpu)]->set_hwp_request_pkg(value);
            });
        msrs_.register_msr(
            msr::IA32_HWP_REQUEST,
            [this, core_ref](unsigned cpu) { return core_ref(cpu).hwp_request_raw; },
            [this](unsigned cpu, std::uint64_t value) {
                sync();
                sockets_[socket_of(cpu)]->set_hwp_request(core_of(cpu), value);
                trace_.record(sim_.now(), "hwp", "cpu" + std::to_string(cpu),
                              "request",
                              static_cast<double>(
                                  pcu::decode_hwp_request(value).epp));
            });
        // No guaranteed/excursion change events are modelled: status is 0.
        msrs_.register_msr(msr::IA32_HWP_STATUS, [](unsigned) {
            return std::uint64_t{0};
        });
    }

    // RAPL registers, package scoped.
    for (unsigned s = 0; s < cfg_.sockets; ++s) {
        sockets_[s]->rapl().attach(msrs_, cpu_id(s, 0), cpu_id(s, sku_->cores - 1));
    }
}

// --- workload / p-state / c-state control ----------------------------------

void Node::set_workload(unsigned cpu, const workloads::Workload* w, unsigned threads) {
    sync();
    sockets_[socket_of(cpu)]->run_workload(core_of(cpu), w, threads);
}

void Node::clear_workload(unsigned cpu) { park(cpu, cfg_.park_state); }

void Node::set_all_workloads(const workloads::Workload* w, unsigned threads) {
    for (unsigned cpu = 0; cpu < cpu_count(); ++cpu) set_workload(cpu, w, threads);
}

void Node::clear_all_workloads() {
    for (unsigned cpu = 0; cpu < cpu_count(); ++cpu) clear_workload(cpu);
}

void Node::set_pstate(unsigned cpu, Frequency f) {
    msrs_.write(cpu, msr::IA32_PERF_CTL, static_cast<std::uint64_t>(f.ratio()) << 8);
}

void Node::set_pstate_all(Frequency f) {
    for (unsigned cpu = 0; cpu < cpu_count(); ++cpu) set_pstate(cpu, f);
}

void Node::request_turbo_all() {
    set_pstate_all(Frequency::from_ratio(sku_->nominal_frequency.ratio() + 1));
}

void Node::set_epb(msr::EpbPolicy p) {
    for (unsigned cpu = 0; cpu < cpu_count(); ++cpu) {
        msrs_.write(cpu, msr::IA32_ENERGY_PERF_BIAS, msr::encode_epb(p));
    }
}

bool Node::hwp_capable() const {
    return platform::backend_for(sku_->generation).hwp_capable();
}

void Node::enable_hwp(bool on) {
    if (!hwp_capable()) return;
    for (unsigned s = 0; s < socket_count(); ++s) {
        msrs_.write(cpu_id(s, 0), msr::MSR_PM_ENABLE, on ? 1 : 0);
    }
}

void Node::set_hwp_request(unsigned cpu, const pcu::HwpRequest& req) {
    if (!hwp_capable()) return;
    msrs_.write(cpu, msr::IA32_HWP_REQUEST, pcu::encode_hwp_request(req));
}

void Node::set_hwp_request_all(const pcu::HwpRequest& req) {
    for (unsigned cpu = 0; cpu < cpu_count(); ++cpu) set_hwp_request(cpu, req);
}

void Node::set_turbo_enabled(bool on) {
    sync();
    for (auto& s : sockets_) s->set_turbo_enabled(on);
}

void Node::park(unsigned cpu, cstates::CState state) {
    sync();
    sockets_[socket_of(cpu)]->park(core_of(cpu), state);
}

Time Node::wake(unsigned waker_cpu, unsigned wakee_cpu) {
    sync();
    const Socket& wakee_socket = *sockets_[socket_of(wakee_cpu)];
    const SimCore& wakee = wakee_socket.cores()[core_of(wakee_cpu)];
    if (wakee.state == cstates::CState::C0) return Time::zero();

    cstates::WakeScenario scenario;
    if (socket_of(waker_cpu) == socket_of(wakee_cpu)) {
        scenario = cstates::WakeScenario::Local;
    } else if (wakee_socket.any_core_active()) {
        scenario = cstates::WakeScenario::RemoteActive;
    } else {
        scenario = cstates::WakeScenario::RemoteIdle;
    }

    // The core resumes at its requested p-state; the wake latency depends
    // on that frequency (Figures 5/6).
    const Frequency resume = Frequency::from_ratio(
        std::clamp(wakee.requested_ratio, sku_->min_frequency.ratio(),
                   sku_->nominal_frequency.ratio()));
    const Time latency = wake_model_.sample(wakee.state, resume, scenario, rng_);

    trace_.record(sim_.now(), "cstate", "cpu" + std::to_string(wakee_cpu),
                  std::string{"wake from "} + std::string{cstates::name(wakee.state)},
                  latency.as_us());

    sim_.schedule_after(latency, [this, wakee_cpu] {
        sync();
        sockets_[socket_of(wakee_cpu)]->wake(core_of(wakee_cpu));
    });
    return latency;
}

cstates::CState Node::core_state(unsigned cpu) const {
    return sockets_[socket_of(cpu)]->cores()[core_of(cpu)].state;
}

cstates::PackageCState Node::package_state(unsigned socket) const {
    return sockets_[socket]->package_state(any_core_active_in_system());
}

// --- observation ------------------------------------------------------------

Frequency Node::core_frequency(unsigned cpu) const {
    return sockets_[socket_of(cpu)]->cores()[core_of(cpu)].frequency;
}

Frequency Node::uncore_frequency(unsigned socket) const {
    return sockets_[socket]->uncore_frequency();
}

Power Node::ac_power() {
    sync();
    return ac_model_.ac_power(true_node_dc_power());
}

Power Node::true_node_dc_power() {
    sync();
    Power total = Power::zero();
    const Time now = sim_.now();
    for (auto& s : sockets_) {
        total += s->current_package_power(now) + s->current_dram_power();
    }
    return total;
}

Power Node::rapl_power_over(Time dt) {
    Power total = Power::zero();
    std::vector<std::uint32_t> pkg_before;
    std::vector<std::uint32_t> dram_before;
    for (unsigned s = 0; s < socket_count(); ++s) {
        const unsigned cpu = cpu_id(s, 0);
        pkg_before.push_back(
            static_cast<std::uint32_t>(msrs_.read(cpu, msr::MSR_PKG_ENERGY_STATUS)));
        dram_before.push_back(
            static_cast<std::uint32_t>(msrs_.read(cpu, msr::MSR_DRAM_ENERGY_STATUS)));
    }
    run_for(dt);
    for (unsigned s = 0; s < socket_count(); ++s) {
        const unsigned cpu = cpu_id(s, 0);
        const auto pkg_after =
            static_cast<std::uint32_t>(msrs_.read(cpu, msr::MSR_PKG_ENERGY_STATUS));
        const auto dram_after =
            static_cast<std::uint32_t>(msrs_.read(cpu, msr::MSR_DRAM_ENERGY_STATUS));
        const double pkg_j = static_cast<std::uint32_t>(pkg_after - pkg_before[s]) *
                             sockets_[s]->rapl().energy_unit(rapl::Domain::Package);
        const double dram_j = static_cast<std::uint32_t>(dram_after - dram_before[s]) *
                              sockets_[s]->rapl().energy_unit(rapl::Domain::Dram);
        total += Power::watts((pkg_j + dram_j) / dt.as_seconds());
    }
    return total;
}

Node::RaplWindow Node::rapl_window(unsigned socket, Time dt) {
    const unsigned cpu = cpu_id(socket, 0);
    const auto pkg0 = static_cast<std::uint32_t>(msrs_.read(cpu, msr::MSR_PKG_ENERGY_STATUS));
    const auto dram0 =
        static_cast<std::uint32_t>(msrs_.read(cpu, msr::MSR_DRAM_ENERGY_STATUS));
    run_for(dt);
    const auto pkg1 = static_cast<std::uint32_t>(msrs_.read(cpu, msr::MSR_PKG_ENERGY_STATUS));
    const auto dram1 =
        static_cast<std::uint32_t>(msrs_.read(cpu, msr::MSR_DRAM_ENERGY_STATUS));
    RaplWindow w;
    w.package = Power::watts(static_cast<std::uint32_t>(pkg1 - pkg0) *
                             sockets_[socket]->rapl().energy_unit(rapl::Domain::Package) /
                             dt.as_seconds());
    w.dram = Power::watts(static_cast<std::uint32_t>(dram1 - dram0) *
                          sockets_[socket]->rapl().energy_unit(rapl::Domain::Dram) /
                          dt.as_seconds());
    return w;
}

}  // namespace hsw::core
