// Uncore frequency scaling policy (Sections II-D and V-A, Table III).
//
// Per the patent description, the hardware derives the uncore clock from
// core stall cycles, the EPB, and c-states. Our policy distinguishes three
// regimes, calibrated against the paper's observations:
//  - no stalls (while(1)): a firmware ladder below the fastest active
//    core's clock (Table III),
//  - moderate stalls (FIRESTARTER): the uncore tracks the fastest core 1:1
//    (Table IV turbo row),
//  - stall-dominated (memory streaming): the uncore heads for its maximum
//    (3.0 GHz upper bound, Section V-A).
// EPB=performance forces the maximum; the passive socket follows the
// system's fastest core one 100 MHz step lower; deep package sleep halts
// the uncore clock entirely.
#pragma once

#include <cstdint>

#include "arch/sku.hpp"
#include "msr/msr_file.hpp"
#include "util/units.hpp"

namespace hsw::pcu {

using util::Frequency;

struct UfsInputs {
    const arch::Sku* sku = nullptr;
    msr::EpbPolicy epb = msr::EpbPolicy::Balanced;
    /// Highest granted core clock among active cores on *this* socket
    /// (zero when the socket is passive).
    Frequency fastest_local_core;
    /// Highest granted core clock among active cores in the whole system:
    /// the input of the passive-socket rule. No policy reads it while
    /// `socket_active`, and the PCU's active search leaves it zero.
    Frequency fastest_system_core;
    /// Maximum off-core stall fraction over this socket's active cores.
    double stall_fraction = 0.0;
    /// True if any core on this socket is in C0.
    bool socket_active = false;
    /// True if any core anywhere in the system is in C0 (blocks PC-states).
    bool system_active = false;
    /// True while a turbo-range p-state is requested on this socket.
    bool turbo_requested = false;
    /// Software clamp from MSR_UNCORE_RATIO_LIMIT (bits 6:0 max ratio,
    /// bits 14:8 min ratio, in 100 MHz units; 0 = unconstrained).
    unsigned msr_max_ratio = 0;
    unsigned msr_min_ratio = 0;
};

/// The uncore target *demand* (before power limiting), and the floor the
/// budget allocator must preserve while throttling cores.
struct UfsDecision {
    Frequency target;        // what UFS wants given headroom
    Frequency floor;         // minimum to hold while cores are throttled
    bool clock_halted = false;  // package C3/C6: uncore clock stops
};

[[nodiscard]] UfsDecision uncore_policy(const UfsInputs& in);

/// The Table III firmware ladder: uncore clock for a core ratio in the
/// no-stall regime. Exposed for tests and the Table III bench.
[[nodiscard]] Frequency ladder_frequency(unsigned core_ratio);

/// Decode MSR_UNCORE_RATIO_LIMIT into (max_ratio, min_ratio); zero fields
/// mean "unconstrained".
struct UncoreRatioLimit {
    unsigned max_ratio = 0;
    unsigned min_ratio = 0;
};
[[nodiscard]] constexpr UncoreRatioLimit decode_uncore_ratio_limit(std::uint64_t raw) {
    return UncoreRatioLimit{static_cast<unsigned>(raw & 0x7F),
                            static_cast<unsigned>((raw >> 8) & 0x7F)};
}
[[nodiscard]] constexpr std::uint64_t encode_uncore_ratio_limit(unsigned max_ratio,
                                                                unsigned min_ratio) {
    return (static_cast<std::uint64_t>(min_ratio & 0x7F) << 8) |
           (static_cast<std::uint64_t>(max_ratio & 0x7F));
}

}  // namespace hsw::pcu
