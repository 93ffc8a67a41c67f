// Socket::advance_to() reuses the rates it derived for an operating point
// until one of their inputs changes. Reuse must be invisible: a node that
// reuses them matches, to the last bit, a twin that re-derives them before
// every integration.
#include <gtest/gtest.h>

#include <vector>

#include "core/node.hpp"
#include "node_twin.hpp"

namespace hsw::core {
namespace {

using twin::Step;

/// Runs `steps` on a node that reuses its rates and on a twin that
/// re-derives them on every integration, comparing after each step.
void expect_reuse_is_invisible(const NodeConfig& cfg, const std::vector<Step>& steps) {
    Node cached{cfg};
    Node fresh{cfg};
    for (unsigned s = 0; s < fresh.socket_count(); ++s) {
        SocketTestPeer::recompute_every_advance(fresh.socket(s));
    }
    for (const Step& step : steps) {
        for (Node* n : {&cached, &fresh}) {
            if (step.act) {
                step.act(*n);
            } else {
                n->run_for(step.run);
            }
        }
        ASSERT_EQ(twin::first_difference(cached, fresh), "") << "after: " << step.what;
    }
}

// Both twin scripts (node_twin.hpp): a Haswell-EP node through parking,
// waking, a whole-system sleep, workload swaps, p-state, EPB and turbo
// changes and mprime's phase flip; then Skylake-SP with HWP on, AVX-512
// license levels and per-die uncore grants.
TEST(Node, CachedRatesMatchRecomputedRates) {
    expect_reuse_is_invisible(NodeConfig{}, twin::haswell_script());
    expect_reuse_is_invisible(twin::skylake_config(), twin::skylake_script());
}

}  // namespace
}  // namespace hsw::core
