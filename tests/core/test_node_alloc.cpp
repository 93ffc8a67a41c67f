// The node model's per-tick path -- PCU opportunity grid, grant apply,
// socket integration, RAPL refresh and meter sampling -- must not touch the
// allocator once warm. A survey cell runs millions of these ticks, so an
// allocation here is paid millions of times (and a grant-apply capture that
// outgrows the event callback's inline buffer spills on every switch).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "../heap_alloc_counter.hpp"
#include "core/node.hpp"
#include "pcu/hwp.hpp"
#include "pcu/pcu.hpp"
#include "platform/registry.hpp"
#include "util/inline_function.hpp"
#include "workloads/mixes.hpp"

namespace hsw::core {
namespace {

using util::Time;

struct Window {
    std::uint64_t heap_allocs = 0;
    std::uint64_t inline_spills = 0;
    std::uint64_t events = 0;
    std::uint64_t steady_ticks = 0;
    double min_ghz = 1e9;  // core 0's granted clock, sampled every 1 ms
    double max_ghz = 0.0;
    unsigned relaxing_level_before = 0;  // license level of the relaxing cpu
    unsigned relaxing_level_after = 0;
};

/// The mprime cores' phase flip: the square wave drops at half its period.
Time mprime_flip() {
    return Time::from_seconds(workloads::mprime().modulation_period_s / 2.0);
}

/// Loads every cpu with `heavy`, except cores 5 and 7 of socket 1, which
/// run mprime. Socket 0, whose core 0 the window samples, stays uniform.
void load(Node& node, const workloads::Workload& heavy) {
    for (unsigned cpu = 0; cpu < node.cpu_count(); ++cpu) {
        const bool mprime = cpu == node.cpu_id(1, 5) || cpu == node.cpu_id(1, 7);
        node.set_workload(cpu, mprime ? &workloads::mprime() : &heavy, 2);
    }
}

/// Runs `node` to 100 ms before mprime's phase flip, then 200 ms across it
/// in 1 ms steps while counting trips to the allocator. Midway through the
/// first half, cpu `relaxing` switches to `lighter`, whose lower license
/// demand the core relaxes to one level per 1 ms.
Window steady_window(Node& node, unsigned relaxing, const workloads::Workload& lighter) {
    node.run_until(mprime_flip() - Time::ms(100));  // buffers and the event slab reach size
    node.meter().clear();  // keeps its capacity for the window's samples
    Window w;
    const std::uint64_t events_before = node.simulator().processed_events();
    const pcu::TickCounts ticks_before = pcu::PcuController::thread_tick_counts();
    const std::uint64_t spills_before = util::inline_function_heap_allocations();
    const std::uint64_t allocs_before = g_heap_allocs.load();
    for (int i = 0; i < 200; ++i) {
        if (i == 50) {
            w.relaxing_level_before =
                node.socket(node.socket_of(relaxing)).cores()[node.core_of(relaxing)].license_level;
            node.set_workload(relaxing, &lighter, 2);
        }
        node.run_for(Time::ms(1));
        const double ghz = node.core_frequency(0).as_ghz();
        w.min_ghz = std::min(w.min_ghz, ghz);
        w.max_ghz = std::max(w.max_ghz, ghz);
    }
    w.heap_allocs = g_heap_allocs.load() - allocs_before;
    w.inline_spills = util::inline_function_heap_allocations() - spills_before;
    w.events = node.simulator().processed_events() - events_before;
    const pcu::TickCounts ticks_after = pcu::PcuController::thread_tick_counts();
    w.steady_ticks = (ticks_after.evaluated - ticks_before.evaluated) -
                     (ticks_after.gathered - ticks_before.gathered);
    w.relaxing_level_after =
        node.socket(node.socket_of(relaxing)).cores()[node.core_of(relaxing)].license_level;
    return w;
}

/// The window must be TDP-limited and dithering (the PCU only dithers core
/// clocks while it throttles, below nominal), so grant-apply events ran
/// inside it; it must cross steady ticks, a license relax and mprime's
/// phase flip -- and none of it allocated.
void expect_throttled_and_allocation_free(const Node& node, const Window& w) {
    EXPECT_LT(w.max_ghz, node.sku().nominal_frequency.as_ghz());
    EXPECT_LT(w.min_ghz, w.max_ghz);
    EXPECT_GT(w.events, 800u);  // two 500 us grids, RAPL refresh, applies
    EXPECT_GT(w.steady_ticks, 400u);
    EXPECT_LT(w.relaxing_level_after, w.relaxing_level_before);
    EXPECT_GT(node.now(), mprime_flip());
    EXPECT_EQ(w.heap_allocs, 0u);
    EXPECT_EQ(w.inline_spills, 0u);
}

TEST(Node, TdpLimitedHaswellTicksAreAllocationFree) {
    Node node;  // the paper's Haswell-EP system
    load(node, workloads::firestarter());
    node.request_turbo_all();
    // A socket-1 core drops its AVX license on a scalar load.
    expect_throttled_and_allocation_free(
        node, steady_window(node, node.cpu_id(1, 3), workloads::busy_wait()));
}

TEST(Node, TdpLimitedSkylakeHwpTicksAreAllocationFree) {
    // Skylake-SP adds the HWP input copy, AVX-512 license levels and the
    // per-die uncore grants.
    static const workloads::Workload avx512_firestarter = [] {
        workloads::Workload w = workloads::firestarter();
        w.name = "firestarter-avx512";
        w.avx512_fraction = 0.9;
        return w;
    }();
    NodeConfig cfg;
    cfg.sku = &platform::backend_for(arch::Generation::SkylakeSP).survey_sku();
    Node node{cfg};
    node.enable_hwp();
    node.set_hwp_request_all(pcu::HwpRequest{.epp = 0});
    load(node, avx512_firestarter);
    // A socket-1 core relaxes from the AVX-512 license to the AVX one.
    expect_throttled_and_allocation_free(
        node, steady_window(node, node.cpu_id(1, 3), workloads::firestarter()));
}

}  // namespace
}  // namespace hsw::core
