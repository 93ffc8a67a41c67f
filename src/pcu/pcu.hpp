// Power control unit firmware model.
//
// Each socket's PCU evaluates its control loops on the 500 us opportunity
// grid (Section VI-A): it latches pending p-state requests, resolves turbo
// and AVX-license caps, runs energy-efficient turbo, decides the uncore
// clock (UFS), and enforces the package power limit by first throttling
// cores (holding the UFS floor) and then granting remaining headroom to the
// uncore -- the mechanism behind Table IV's "lower core frequency setting
// can increase performance" observation.
//
// Fractional TDP equilibria are realized by dithering between adjacent
// 100 MHz ratios across opportunity ticks, exactly like the real PCU's
// running-average limiter; time-averaged counters then show the
// non-multiple frequencies the paper reports (e.g. 2.31 GHz).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/sku.hpp"
#include "cstates/cstate.hpp"
#include "msr/msr_file.hpp"
#include "pcu/avx_license.hpp"
#include "pcu/policy.hpp"
#include "pcu/turbo.hpp"
#include "pcu/uncore_scaling.hpp"
#include "power/vf_curve.hpp"
#include "util/units.hpp"

namespace hsw::pcu {

using util::Frequency;
using util::Power;
using util::Time;
using util::Voltage;

struct CoreInputs {
    cstates::CState state = cstates::CState::C6;
    unsigned requested_ratio = 12;   // IA32_PERF_CTL target (nominal+1 = turbo)
    double avx_fraction = 0.0;       // of the running workload
    double avx512_fraction = 0.0;    // 512-bit density (license level 2 input)
    double stall_fraction = 0.0;
    double cdyn_utilization = 0.0;   // current dynamic activity
    /// Raw IA32_HWP_REQUEST for this core (0 = fall back to the package
    /// request, then to an autonomous default). Ignored unless HWP is on.
    std::uint64_t hwp_request_raw = 0;
};

struct PcuInputs {
    std::vector<CoreInputs> cores;
    msr::EpbPolicy epb = msr::EpbPolicy::Balanced;
    bool turbo_enabled = true;
    double uncore_traffic = 0.0;       // [0,1]
    double current_intensity = 0.0;    // worst over running workloads
    bool system_active = true;         // any C0 core anywhere (both sockets)
    /// Fastest C0 core in the system; read only by the passive-socket
    /// uncore rule, so an active socket may leave it zero.
    Frequency fastest_system_core;
    /// Software package power cap from MSR_PKG_POWER_LIMIT (0 = use TDP).
    double power_limit_watts = 0.0;
    /// Raw MSR_UNCORE_RATIO_LIMIT value (0 = unconstrained).
    std::uint64_t uncore_ratio_limit_raw = 0;
    /// MSR_PM_ENABLE bit 0: requests are taken from hwp_request_raw instead
    /// of requested_ratio. Only honored by HWP-capable policies.
    bool hwp_enabled = false;
    /// Raw IA32_HWP_REQUEST_PKG fallback for cores with no own request.
    std::uint64_t hwp_request_pkg_raw = 0;
};

struct CoreGrant {
    Frequency frequency;
    Voltage voltage;
    bool avx_licensed = false;
    unsigned license_level = 0;      // 0 none, 1 AVX, 2 AVX-512
    double throughput_factor = 1.0;  // < 1 during the AVX voltage ramp
};

struct PcuOutputs {
    std::vector<CoreGrant> cores;
    Frequency uncore_frequency;
    Voltage uncore_voltage;
    bool uncore_clock_halted = false;
    bool tdp_limited = false;
    Power estimated_package_power;
    /// Per-die uncore grants (Skylake-SP sub-NUMA clusters); empty for
    /// policies with a package-wide uncore clock.
    std::vector<Frequency> die_uncore_frequency;
};

/// Opportunity-grid work done on one thread, by every controller on it.
struct TickCounts {
    std::uint64_t evaluated = 0;  // evaluations, steady or full
    std::uint64_t gathered = 0;   // full evaluations, each over gathered inputs
    std::uint64_t searched = 0;   // full evaluations that ran the search
};

class PcuController {
public:
    /// Most cores per socket a controller handles (the largest modelled
    /// SKU has 18); the per-evaluation ratio sets live in arrays this big.
    static constexpr std::size_t kMaxCores = 32;

    /// A null policy means the default Haswell policy (haswell_policy()).
    /// Throws std::invalid_argument for SKUs with more than kMaxCores.
    PcuController(const arch::Sku& sku, unsigned socket_id,
                  const PcuPolicy* policy = nullptr);

    /// Run one opportunity-grid evaluation into `out`. Deterministic given
    /// inputs. Allocation-free once `out` (and, with HWP live, the
    /// controller's input copy) has held one evaluation for this SKU.
    void evaluate(const PcuInputs& in, Time now, PcuOutputs& out);
    [[nodiscard]] PcuOutputs evaluate(const PcuInputs& in, Time now) {
        PcuOutputs out;
        evaluate(in, now, out);
        return out;
    }
    /// The evaluation at `now` of inputs bit-identical to the last
    /// evaluate()'s `in`, from state that evaluation stored: the EET poll,
    /// the dither step and a copy of a stored grant set. Returns false and
    /// changes nothing unless that evaluation took the active path, its
    /// search is still stored, every license machine is idle and past its
    /// ramp, and an EET poll due now would keep the stall snapshot. Then
    /// `out` equals what evaluate() would write, bit for bit.
    [[nodiscard]] bool evaluate_steady(const PcuInputs& in, Time now, PcuOutputs& out);

    /// Model-estimated package power for a hypothetical operating point.
    /// This is the unmemoized reference: the budget loop sums the same
    /// per-core terms from a memo, and tests compare the two bit for bit.
    [[nodiscard]] Power estimate_package_power(const PcuInputs& in,
                                               std::span<const unsigned> core_ratios,
                                               Frequency uncore) const;

    [[nodiscard]] const arch::Sku& sku() const { return *sku_; }
    [[nodiscard]] unsigned socket_id() const { return socket_id_; }

    /// Evaluations by every controller on the calling thread since thread
    /// start. The experiment engine samples it around a job, like
    /// sim::Simulator::thread_events_processed().
    [[nodiscard]] static TickCounts thread_tick_counts();

    /// Effective power budget after the peak-current guardband: very
    /// current-intense code (LINPACK) is budgeted below TDP, which is why
    /// it shows both lower frequency and lower power in Table V.
    [[nodiscard]] Power effective_budget(double current_intensity) const;

private:
    friend struct PcuControllerTestPeer;  // clears the carry

    using Ratios = std::array<unsigned, kMaxCores>;
    /// Ratios 0..kMemoRatios-1 are memoized (turbo tops out near 40).
    static constexpr unsigned kMemoRatios = 64;
    /// No core ever holds this stamp, so a fresh entry never reads as valid.
    static constexpr std::uint64_t kNoStamp = ~std::uint64_t{0};
    struct MemoEntry {
        Power watts;
        std::uint64_t stamp = kNoStamp;  // valid while equal to its core's stamp
    };
    /// A core's memo key -- everything core_term reads besides the ratio
    /// (core_voltage reads only constant curves) -- and the stamp that
    /// changes whenever the key does.
    struct CoreKey {
        double cdyn = 0.0;
        cstates::CState state = cstates::CState::C6;
        unsigned level = 0;
        std::uint64_t stamp = 0;
    };
    /// Everything the throttle/uncore search reads. A core's CoreKey
    /// enters through its stamp, which changes exactly when the key does.
    /// The system's fastest core is no part of it: only the passive-socket
    /// rule reads that, and a passive socket never searches.
    struct SearchKey {
        struct Core {
            std::uint64_t stamp = kNoStamp;
            unsigned requested_ratio = 0;
            double stall_fraction = 0.0;
        };
        std::array<Core, kMaxCores> cores{};
        msr::EpbPolicy epb = msr::EpbPolicy::Balanced;
        bool turbo_enabled = false;
        double uncore_traffic = 0.0;
        double current_intensity = 0.0;
        double power_limit_watts = 0.0;
        std::uint64_t uncore_ratio_limit_raw = 0;
        double eet_stall_snapshot = 0.0;
    };
    /// The search's result: the two operating points a dither picks from
    /// (`lo` alone when none applies) and the weight `alpha` of `hi`.
    struct Search {
        Ratios lo{};
        Ratios hi{};
        Frequency uncore_lo;
        Frequency uncore_hi;
        double alpha = 0.0;
        bool dither = false;
        bool core_dither = false;  // which accumulator: core or uncore
        bool tdp_limited = false;
        // Estimated package power at lo and at hi (the tick's estimate).
        Power power_lo;
        Power power_hi;
    };

    /// The pipeline shared by all generations; `in` already has HWP
    /// requests resolved into requested_ratio when HWP is live.
    void evaluate_impl(const PcuInputs& in, Time now, PcuOutputs& out);
    /// Stores this tick's SearchKey; true when it equals the stored one,
    /// so the stored Search still holds.
    [[nodiscard]] bool refresh_search_key(const PcuInputs& in);
    /// Caps, floors, budget, the throttle loop and the UFS decisions of an
    /// active socket: a pure function of the SearchKey.
    [[nodiscard]] Search search(const PcuInputs& in, unsigned n_active, double max_stall,
                                bool turbo_requested);
    /// Advances the stored search's dither; true when it picks `hi`.
    [[nodiscard]] bool dither_step();
    /// The grants at the stored search's `hi` or `lo` point, with each
    /// license's throughput factor at `now`, into `out` (sized).
    void assemble(bool hi, Time now, PcuOutputs& out) const;
    /// Forgets every carried term and search result.
    void clear_carry();
    /// Resolve IA32_HWP_REQUEST windows into per-core requested ratios and
    /// an effective bias tier (the minimum EPP over active cores wins).
    void apply_hwp(PcuInputs& in) const;
    /// Split the package uncore grant into per-die grants (idle die parks
    /// at the minimum; an active die never exceeds the package grant), or
    /// clear them for a policy with one package-wide uncore clock.
    void fill_die_uncore(const PcuInputs& in, PcuOutputs& out) const;
    [[nodiscard]] Voltage core_voltage(unsigned core, Frequency f, unsigned level) const;
    /// One core's power term at `ratio` (the summand of the estimate).
    [[nodiscard]] Power core_term(const CoreInputs& c, std::size_t core, unsigned ratio) const;
    /// estimate_package_power over memoized core terms. While a core keeps
    /// its stamp its term depends only on the ratio; the terms are still
    /// added in core order, so every sum is bit-identical to the reference.
    [[nodiscard]] Power estimate_memoized(const PcuInputs& in, const Ratios& ratios,
                                          Frequency uncore);

    const arch::Sku* sku_;
    unsigned socket_id_;
    const PcuPolicy* policy_;
    power::VfCurve core_curve_;
    power::VfCurve uncore_curve_;
    std::vector<AvxLicenseLevels> licenses_;
    // The carry: work reused across ticks while its inputs stay bit-identical.
    std::vector<MemoEntry> memo_;  // cores x kMemoRatios, keyed by core stamp
    std::array<CoreKey, kMaxCores> core_keys_{};
    std::uint64_t last_stamp_ = 0;
    SearchKey search_key_;
    Search search_;
    bool search_valid_ = false;  // no search stored yet, or clear_carry() ran
    PcuInputs hwp_inputs_;         // reused copy with HWP requests resolved
    // What the last full evaluation leaves for evaluate_steady().
    bool steady_ok_ = false;  // it took the active path with every license idle
    Time ramp_end_;           // the latest license ramp end it saw
    double max_stall_ = 0.0;  // its stall input, the value an EET poll would take
    // Steady ticks skip the license updates; the next full evaluation first
    // holds every license at the last steady tick (AvxLicenseLevels::hold).
    bool held_ = false;
    Time held_at_;
    // The stored search's lo and hi grants, built at the first steady tick
    // after a search and copied out on every steady tick until the next.
    std::array<PcuOutputs, 2> grant_sets_;
    bool grant_sets_valid_ = false;
    double core_dither_accum_ = 0.0;
    double uncore_dither_accum_ = 0.0;
    std::uint64_t tick_count_ = 0;
    // EET polls the stall data only sporadically (1 ms per the patent,
    // Section II-E); decisions between polls use the stale snapshot, which
    // is what hurts workloads that change phase at unfavorable rates.
    Time last_eet_poll_ = Time::ns(-1'000'000'000);
    double eet_stall_snapshot_ = 0.0;
};

}  // namespace hsw::pcu
