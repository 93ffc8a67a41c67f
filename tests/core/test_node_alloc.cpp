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
    double min_ghz = 1e9;  // core 0's granted clock, sampled every 1 ms
    double max_ghz = 0.0;
};

/// Warm `node` up, then run 50 ms in 1 ms steps while counting trips to
/// the allocator.
Window steady_window(Node& node) {
    node.run_for(Time::ms(200));  // buffers and the event slab reach size
    node.meter().clear();         // keeps its capacity for the window's sample
    Window w;
    const std::uint64_t events_before = node.simulator().processed_events();
    const std::uint64_t spills_before = util::inline_function_heap_allocations();
    const std::uint64_t allocs_before = g_heap_allocs.load();
    for (int i = 0; i < 50; ++i) {
        node.run_for(Time::ms(1));
        const double ghz = node.core_frequency(0).as_ghz();
        w.min_ghz = std::min(w.min_ghz, ghz);
        w.max_ghz = std::max(w.max_ghz, ghz);
    }
    w.heap_allocs = g_heap_allocs.load() - allocs_before;
    w.inline_spills = util::inline_function_heap_allocations() - spills_before;
    w.events = node.simulator().processed_events() - events_before;
    return w;
}

/// The window must be TDP-limited and dithering (the PCU only dithers core
/// clocks while it throttles, below nominal), so grant-apply events ran
/// inside it -- and none of it allocated.
void expect_throttled_and_allocation_free(const Node& node, const Window& w) {
    EXPECT_LT(w.max_ghz, node.sku().nominal_frequency.as_ghz());
    EXPECT_LT(w.min_ghz, w.max_ghz);
    EXPECT_GT(w.events, 200u);  // two 500 us grids, RAPL refresh, applies
    EXPECT_EQ(w.heap_allocs, 0u);
    EXPECT_EQ(w.inline_spills, 0u);
}

TEST(Node, TdpLimitedHaswellTicksAreAllocationFree) {
    Node node;  // the paper's Haswell-EP system
    node.set_all_workloads(&workloads::firestarter(), 2);
    node.request_turbo_all();
    expect_throttled_and_allocation_free(node, steady_window(node));
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
    node.set_all_workloads(&avx512_firestarter, 2);
    expect_throttled_and_allocation_free(node, steady_window(node));
}

}  // namespace
}  // namespace hsw::core
