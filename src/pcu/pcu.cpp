#include "pcu/pcu.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "arch/calibration.hpp"
#include "pcu/hwp.hpp"
#include "power/power_model.hpp"

namespace hsw::pcu {

namespace cal = hsw::arch::cal;

namespace {

constexpr double kUncoreStepMhz = 50.0;  // ladder granularity (1.75/1.65 GHz)

[[nodiscard]] Frequency step_up(Frequency f) { return Frequency::mhz(f.as_mhz() + kUncoreStepMhz); }

/// Stores `value` in the carry key `slot`; true when it was already there.
/// Doubles compare by their bits, except that a NaN matches nothing: `==`
/// rejects NaN, and the sign test keeps -0.0 from matching +0.0.
template <class T>
bool keep(T& slot, T value) {
    bool same = slot == value;
    if constexpr (std::is_floating_point_v<T>) {
        same = same && std::signbit(slot) == std::signbit(value);
    }
    slot = value;
    return same;
}

}  // namespace

PcuController::PcuController(const arch::Sku& sku, unsigned socket_id,
                             const PcuPolicy* policy)
    : sku_{&sku},
      socket_id_{socket_id},
      policy_{policy != nullptr ? policy : &haswell_policy()},
      core_curve_{power::VfCurve::core_curve(socket_id)},
      uncore_curve_{power::VfCurve::uncore_curve(socket_id)},
      licenses_(sku.cores),
      memo_(static_cast<std::size_t>(sku.cores) * kMemoRatios) {
    if (sku.cores > kMaxCores) {
        throw std::invalid_argument("PcuController: more than " +
                                    std::to_string(kMaxCores) + " cores per socket");
    }
}

Voltage PcuController::core_voltage(unsigned core, Frequency f, unsigned level) const {
    Voltage v = core_curve_.voltage_for(f);
    if (level > 0) {
        v = v + Voltage::volts(policy_->license_voltage_adder_volts(level));
    }
    (void)core;  // per-core variation is applied by the socket's noise layer
    return v;
}

Power PcuController::effective_budget(double current_intensity) const {
    const double shave = std::max(0.0, current_intensity - cal::kGuardbandCurrentThreshold) *
                         cal::kGuardbandWattsPerUnit;
    return Power::watts(sku_->tdp.as_watts() - shave);
}

Power PcuController::core_term(const CoreInputs& c, std::size_t core, unsigned ratio) const {
    const Frequency f = Frequency::from_ratio(ratio);
    const power::CoreActivity activity{
        .cdyn_utilization = c.cdyn_utilization,
        .clock_running = c.state == cstates::CState::C0,
        .power_gated = cstates::power_gated(c.state),
    };
    return power::core_power(
        activity, core_voltage(static_cast<unsigned>(core), f, licenses_[core].level()), f);
}

Power PcuController::estimate_package_power(const PcuInputs& in,
                                            std::span<const unsigned> core_ratios,
                                            Frequency uncore) const {
    assert(core_ratios.size() == in.cores.size());
    Power total = power::socket_static_power();
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        total += core_term(in.cores[i], i, core_ratios[i]);
    }
    total += power::uncore_power(in.uncore_traffic, uncore_curve_.voltage_for(uncore), uncore);
    return total;
}

// hsw:hot-path -- the budget loop sums these terms ~8 times per tick.
Power PcuController::estimate_memoized(const PcuInputs& in, const Ratios& ratios,
                                       Frequency uncore) {
    Power total = power::socket_static_power();
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        const unsigned r = ratios[i];
        if (r >= kMemoRatios) {
            total += core_term(in.cores[i], i, r);
            continue;
        }
        MemoEntry& e = memo_[i * kMemoRatios + r];
        if (e.stamp != core_keys_[i].stamp) {
            e = MemoEntry{core_term(in.cores[i], i, r), core_keys_[i].stamp};
        }
        total += e.watts;
    }
    total += power::uncore_power(in.uncore_traffic, uncore_curve_.voltage_for(uncore), uncore);
    return total;
}
// hsw:end-hot-path

void PcuController::evaluate(const PcuInputs& in, Time now, PcuOutputs& out) {
    out.cores.resize(in.cores.size());  // a reused buffer keeps its capacity
    if (in.hwp_enabled && policy_->hwp_capable()) {
        hwp_inputs_ = in;
        apply_hwp(hwp_inputs_);
        evaluate_impl(hwp_inputs_, now, out);
    } else {
        evaluate_impl(in, now, out);
    }
    if (policy_->per_die_uncore()) {
        fill_die_uncore(in, out);
    } else {
        out.die_uncore_frequency.clear();
    }
}

void PcuController::apply_hwp(PcuInputs& in) const {
    const HwpCapabilities caps = capabilities_for(*sku_);
    unsigned min_epp = 255;
    bool any_active = false;
    for (auto& c : in.cores) {
        const std::uint64_t raw =
            c.hwp_request_raw != 0 ? c.hwp_request_raw : in.hwp_request_pkg_raw;
        // Raw zero means "nobody programmed a request": run autonomously
        // with the default (balanced) EPP rather than decoding epp = 0.
        const HwpRequest req = raw != 0 ? decode_hwp_request(raw) : HwpRequest{};
        c.requested_ratio = resolve_hwp_ratio(caps, req);
        if (c.state == cstates::CState::C0) {
            min_epp = std::min(min_epp, req.epp);
            any_active = true;
        }
    }
    // The most performance-hungry active core sets the package bias tier.
    if (any_active) in.epb = epp_to_epb(min_epp);
}

void PcuController::fill_die_uncore(const PcuInputs& in, PcuOutputs& out) const {
    // Two sub-NUMA clusters: low core IDs on die 0, high on die 1. A die
    // with no running core parks its uncore at the minimum; an active die
    // follows its own fastest core but never exceeds the package grant.
    const std::size_t half = (in.cores.size() + 1) / 2;
    out.die_uncore_frequency.assign(2, sku_->uncore_min);
    if (out.uncore_clock_halted) return;
    for (std::size_t die = 0; die < 2; ++die) {
        const std::size_t begin = die == 0 ? 0 : half;
        const std::size_t end = die == 0 ? half : in.cores.size();
        Frequency fastest = Frequency::zero();
        for (std::size_t i = begin; i < end && i < out.cores.size(); ++i) {
            if (in.cores[i].state != cstates::CState::C0) continue;
            fastest = std::max(fastest, out.cores[i].frequency);
        }
        if (fastest > Frequency::zero()) {
            out.die_uncore_frequency[die] =
                std::min(out.uncore_frequency, std::max(sku_->uncore_min, fastest));
        }
    }
}

// hsw:hot-path -- one opportunity-grid tick; `out` arrives sized (evaluate).
void PcuController::evaluate_impl(const PcuInputs& in, Time now, PcuOutputs& out) {
    assert(in.cores.size() == sku_->cores);
    ++tick_count_;
    const std::size_t n = in.cores.size();

    // --- AVX license state machines, then each core's memo key: a changed
    // key gets a new stamp, which invalidates the core's memoized terms ---
    const bool avx512_capable = policy_->max_license_level() >= 2;
    for (std::size_t i = 0; i < n; ++i) {
        const bool running = in.cores[i].state == cstates::CState::C0;
        licenses_[i].update(running ? in.cores[i].avx_fraction : 0.0,
                            running && avx512_capable ? in.cores[i].avx512_fraction : 0.0,
                            now);
        CoreKey& k = core_keys_[i];
        bool same = keep(k.cdyn, in.cores[i].cdyn_utilization);
        same &= keep(k.state, in.cores[i].state);
        same &= keep(k.level, licenses_[i].level());
        if (!same) k.stamp = ++last_stamp_;
    }

    unsigned n_active = 0;
    double max_stall = 0.0;
    bool turbo_requested = false;
    const unsigned nominal_ratio = sku_->nominal_frequency.ratio();
    for (const auto& c : in.cores) {
        if (c.state != cstates::CState::C0) continue;
        ++n_active;
        max_stall = std::max(max_stall, c.stall_fraction);
        if (c.requested_ratio > nominal_ratio) turbo_requested = true;
    }
    if (in.epb == msr::EpbPolicy::Performance && n_active > 0) turbo_requested = true;

    out.tdp_limited = false;

    // --- Passive socket / fully idle system ---
    if (n_active == 0) {
        const UncoreRatioLimit msr_limit =
            decode_uncore_ratio_limit(in.uncore_ratio_limit_raw);
        UfsInputs ufs{
            .sku = sku_,
            .epb = in.epb,
            .fastest_local_core = Frequency::zero(),
            .fastest_system_core = in.fastest_system_core,
            .stall_fraction = 0.0,
            .socket_active = false,
            .system_active = in.system_active,
            .turbo_requested = in.system_active &&
                               in.fastest_system_core > sku_->nominal_frequency,
            .msr_max_ratio = msr_limit.max_ratio,
            .msr_min_ratio = msr_limit.min_ratio,
        };
        UfsDecision d = policy_->uncore(ufs);
        Frequency uncore = d.target;
        if (!d.clock_halted && ufs.turbo_requested) {
            // Table III: the passive uncore fluctuates between 2.9 and
            // 3.0 GHz when the active socket runs turbo frequencies.
            uncore = (tick_count_ % 2 == 0)
                         ? sku_->uncore_max
                         : Frequency::mhz(sku_->uncore_max.as_mhz() - 100.0);
            if (msr_limit.max_ratio != 0) {
                uncore = std::min(uncore, Frequency::from_ratio(msr_limit.max_ratio));
            }
        }
        Ratios parked;
        parked.fill(sku_->min_frequency.ratio());
        for (std::size_t i = 0; i < n; ++i) {
            const Frequency f = sku_->min_frequency;
            out.cores[i] = CoreGrant{f, core_voltage(static_cast<unsigned>(i), f, 0),
                                     licenses_[i].licensed(), licenses_[i].level(), 1.0};
        }
        out.uncore_frequency = uncore;
        out.uncore_voltage = uncore_curve_.voltage_for(uncore);
        out.uncore_clock_halted = d.clock_halted;
        out.estimated_package_power = estimate_memoized(in, parked, uncore);
        return;
    }

    // --- EET's sporadic stall polling (Section II-E): refresh the stall
    // snapshot at most once per kEetPollPeriod; turbo demotion decisions in
    // between use the stale value. ---
    if (now - last_eet_poll_ >= cal::kEetPollPeriod) {
        last_eet_poll_ = now;
        eet_stall_snapshot_ = max_stall;
    }

    // --- The search, replayed when its inputs match the last tick's ---
    if (!refresh_search_key(in)) {
        search_ = search(in, n_active, max_stall, turbo_requested);
        ++search_count_;
    }
    const Search& s = search_;

    // --- Dither: the operating point alternates between `lo` and `hi`,
    // weighted so the *average* power equals the budget. This is what yields
    // the paper's fractional frequencies (core 2.30-2.35 with uncore ~= core
    // in Table IV's turbo/2.5/2.4 rows). ---
    bool take_hi = false;
    if (s.dither) {
        double& accum = s.core_dither ? core_dither_accum_ : uncore_dither_accum_;
        accum += s.alpha;
        if (accum >= 1.0) {
            accum -= 1.0;
            take_hi = true;
        }
    }
    const Ratios& ratios = take_hi ? s.hi : s.lo;
    const Frequency uncore = take_hi ? s.uncore_hi : s.uncore_lo;

    // --- Assemble grants ---
    for (std::size_t i = 0; i < n; ++i) {
        const Frequency f = Frequency::from_ratio(ratios[i]);
        const unsigned level = licenses_[i].level();
        out.cores[i] = CoreGrant{
            f,
            core_voltage(static_cast<unsigned>(i), f, level),
            licenses_[i].licensed(),
            level,
            licenses_[i].throughput_factor(now),
        };
    }
    out.tdp_limited = s.tdp_limited;
    out.uncore_frequency = uncore;
    out.uncore_voltage = uncore_curve_.voltage_for(uncore);
    out.uncore_clock_halted = false;
    out.estimated_package_power = take_hi ? s.power_hi : s.power_lo;
}

bool PcuController::refresh_search_key(const PcuInputs& in) {
    SearchKey& k = search_key_;
    bool same = search_valid_;
    for (std::size_t i = 0; i < in.cores.size(); ++i) {
        same &= keep(k.cores[i].stamp, core_keys_[i].stamp);
        same &= keep(k.cores[i].requested_ratio, in.cores[i].requested_ratio);
        same &= keep(k.cores[i].stall_fraction, in.cores[i].stall_fraction);
    }
    same &= keep(k.epb, in.epb);
    same &= keep(k.turbo_enabled, in.turbo_enabled);
    same &= keep(k.uncore_traffic, in.uncore_traffic);
    same &= keep(k.current_intensity, in.current_intensity);
    same &= keep(k.power_limit_watts, in.power_limit_watts);
    same &= keep(k.uncore_ratio_limit_raw, in.uncore_ratio_limit_raw);
    same &= keep(k.eet_stall_snapshot, eet_stall_snapshot_);
    search_valid_ = true;
    return same;
}

PcuController::Search PcuController::search(const PcuInputs& in, unsigned n_active,
                                            double max_stall, bool turbo_requested) {
    const std::size_t n = in.cores.size();
    const unsigned nominal_ratio = sku_->nominal_frequency.ratio();
    const UncoreRatioLimit msr_limit = decode_uncore_ratio_limit(in.uncore_ratio_limit_raw);

    // --- Per-core frequency caps ---
    const TurboContext ctx{sku_, n_active, in.turbo_enabled, in.epb};
    Ratios caps{};
    Ratios floors{};
    const unsigned avx_base_ratio = sku_->avx_base_frequency.ratio();
    for (std::size_t i = 0; i < n; ++i) {
        const auto& c = in.cores[i];
        if (c.state != cstates::CState::C0) {
            // Parked cores keep their requested ratio so they resume it on
            // wake-up (the C-state probes vary this frequency).
            caps[i] = floors[i] =
                std::clamp(c.requested_ratio, sku_->min_frequency.ratio(), nominal_ratio);
            continue;
        }
        Frequency cap = resolve_cap(ctx, Frequency::from_ratio(c.requested_ratio),
                                    licenses_[i].licensed());
        // The AVX-512 license caps harder than the 256-bit one (Skylake-SP:
        // 2.7 GHz nominal drops to 1.9 GHz all-core at license 2).
        if (licenses_[i].level() >= 2) {
            cap = std::min(cap, sku_->max_avx512_turbo(n_active));
        }
        cap = eet_demote(ctx, cap, eet_stall_snapshot_);
        caps[i] = cap.ratio();
        // Guaranteed floor: everything above the license base frequency is
        // opportunistic (Section II-F); requests at or below it are honored.
        const unsigned base_ratio = licenses_[i].level() >= 2
                                        ? sku_->avx512_base_frequency.ratio()
                                        : avx_base_ratio;
        floors[i] = std::min(caps[i], base_ratio);
    }

    Power budget = effective_budget(in.current_intensity);
    if (in.power_limit_watts > 0.0) {
        budget = std::min(budget, Power::watts(in.power_limit_watts));
    }

    auto fastest_ratio = [&](const Ratios& ratios) {
        unsigned best = sku_->min_frequency.ratio();
        for (std::size_t i = 0; i < n; ++i) {
            if (in.cores[i].state == cstates::CState::C0) best = std::max(best, ratios[i]);
        }
        return best;
    };

    auto ufs_decision = [&](const Ratios& ratios) {
        const UfsInputs ufs{
            .sku = sku_,
            .epb = in.epb,
            .fastest_local_core = Frequency::from_ratio(fastest_ratio(ratios)),
            // Only the passive-socket rule reads it, so it is no search input.
            .fastest_system_core = Frequency::zero(),
            .stall_fraction = max_stall,
            .socket_active = true,
            .system_active = true,
            .turbo_requested = turbo_requested,
            .msr_max_ratio = msr_limit.max_ratio,
            .msr_min_ratio = msr_limit.min_ratio,
        };
        return policy_->uncore(ufs);
    };

    // --- Core throttle loop: shed 100 MHz from the fastest cores while the
    // operating point (cores at ratios, uncore at its floor) overruns the
    // budget. The UFS floor moves down with the cores in tracking mode. ---
    Ratios ratios = caps;
    UfsDecision ufs = ufs_decision(ratios);
    bool throttled = false;
    auto over_budget = [&](const Ratios& r, Frequency unc) {
        return estimate_memoized(in, r, unc) > budget;
    };
    while (over_budget(ratios, ufs.floor)) {
        const unsigned fastest = fastest_ratio(ratios);
        bool reduced = false;
        for (std::size_t i = 0; i < n; ++i) {
            if (in.cores[i].state != cstates::CState::C0) continue;
            if (ratios[i] == fastest && ratios[i] > floors[i]) {
                --ratios[i];
                reduced = true;
            }
        }
        if (!reduced) break;  // at guaranteed floors; budget may be exceeded
        throttled = true;
        ufs = ufs_decision(ratios);
    }

    // The weight of `hi` that makes the average power meet the budget.
    auto weight = [&](double p_lo, double p_hi) {
        return p_hi > p_lo ? std::clamp((budget.as_watts() - p_lo) / (p_hi - p_lo), 0.0, 1.0)
                           : 0.0;
    };
    Search s;
    s.tdp_limited = throttled || over_budget(caps, ufs_decision(caps).floor);
    s.lo = ratios;
    s.hi = ratios;
    s.uncore_lo = std::min(ufs.floor, sku_->uncore_max);

    if (throttled) {
        // --- TDP-limited regime: dither the cores between `lo` (uncore at
        // the tracking floor) and one step up (at its floor). The uncore is
        // NOT additionally raised here -- the freed budget goes to the
        // cores first. ---
        s.core_dither = true;
        const unsigned fastest = fastest_ratio(ratios);
        for (std::size_t i = 0; i < n; ++i) {
            if (in.cores[i].state != cstates::CState::C0) continue;
            if (s.hi[i] == fastest && s.hi[i] < caps[i]) {
                ++s.hi[i];
                s.dither = true;
            }
        }
        if (s.dither) {
            const UfsDecision ufs_hi = ufs_decision(s.hi);
            s.uncore_hi = std::min(ufs_hi.floor, sku_->uncore_max);
            s.alpha = weight(estimate_memoized(in, ratios, ufs.floor).as_watts(),
                             estimate_memoized(in, s.hi, ufs_hi.floor).as_watts());
        }
    } else {
        // --- Headroom regime: the cores hold their requested clocks; the
        // remaining budget is granted to the uncore, from the UFS floor
        // toward its target, in 50 MHz steps (Table III/IV behaviour), then
        // dithered between the feasible step and the next one. ---
        Frequency uncore = s.uncore_lo;
        while (step_up(uncore) <= ufs.target && !over_budget(ratios, step_up(uncore))) {
            uncore = step_up(uncore);
        }
        s.uncore_lo = uncore;
        if (step_up(uncore) <= ufs.target) {
            s.uncore_hi = step_up(uncore);
            const double p_lo = estimate_memoized(in, ratios, uncore).as_watts();
            const double p_hi = estimate_memoized(in, ratios, s.uncore_hi).as_watts();
            s.dither = p_hi > p_lo;
            s.alpha = weight(p_lo, p_hi);
        }
    }
    s.power_lo = estimate_memoized(in, s.lo, s.uncore_lo);
    s.power_hi = s.dither ? estimate_memoized(in, s.hi, s.uncore_hi) : s.power_lo;
    return s;
}

void PcuController::clear_carry() {
    for (auto& k : core_keys_) k.stamp = ++last_stamp_;
    search_valid_ = false;
}
// hsw:end-hot-path

}  // namespace hsw::pcu
