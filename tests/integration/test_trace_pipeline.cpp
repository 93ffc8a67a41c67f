// End-to-end trace pipeline: a real node run records the p-state
// lifecycle in its timeline trace.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/node.hpp"
#include "workloads/mixes.hpp"

namespace hsw {
namespace {

using util::Time;

TEST(TracePipeline, NodeRunExportsPstateLifecycle) {
    core::NodeConfig cfg;
    cfg.trace_enabled = true;
    core::Node node{cfg};
    node.set_workload(0, &workloads::while_one(), 1);
    node.run_for(Time::ms(2));
    node.set_pstate(0, util::Frequency::ghz(1.5));
    node.run_for(Time::ms(2));
    node.park(0, cstates::CState::C6);
    node.set_workload(1, &workloads::while_one(), 1);
    node.run_for(Time::ms(1));

    const auto records = node.trace().records();
    const auto any = [&](auto pred) {
        return std::any_of(records.begin(), records.end(), pred);
    };
    EXPECT_TRUE(any([](const auto& r) { return r.category == "pstate"; }));
    EXPECT_TRUE(any([](const auto& r) { return r.category == "pcu"; }));
    EXPECT_TRUE(any([](const auto& r) { return r.detail == "request"; }));
    EXPECT_TRUE(any([](const auto& r) { return r.detail == "change complete"; }));
}

TEST(TracePipeline, RequestPrecedesOpportunityPrecedesComplete) {
    core::NodeConfig cfg;
    cfg.trace_enabled = true;
    core::Node node{cfg};
    node.set_workload(0, &workloads::while_one(), 1);
    node.run_for(Time::ms(2));
    node.trace().clear();
    node.set_pstate(0, util::Frequency::ghz(1.4));
    node.run_for(Time::ms(2));

    const auto requests = node.trace().filter("pstate", "cpu0");
    const auto completes = node.trace().filter("pstate", "socket0");
    ASSERT_FALSE(requests.empty());
    ASSERT_FALSE(completes.empty());
    // The completion follows the request by the grid wait + switch time.
    const double gap_us = (completes.front().when - requests.front().when).as_us();
    EXPECT_GE(gap_us, 19.0);
    EXPECT_LE(gap_us, 530.0);
}

}  // namespace
}  // namespace hsw
