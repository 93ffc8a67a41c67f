// Drives independent event-engine workloads through the longest-first
// Scheduler -- the shape the survey runs in production (one Simulator per
// job, many jobs per pool). Under TSan this is the data-race check for the
// slab/heap engine and the thread-local dispatch counter; under the plain
// build it pins down that per-job event attribution stays exact no matter
// which worker a job lands on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "engine/scheduler.hpp"
#include "sim/simulator.hpp"

namespace hsw::engine {
namespace {

using sim::Simulator;
using util::Time;

/// One job's workload: a ring of self-rescheduling one-shots plus
/// periodics with cancel/reschedule churn, sized by `salt` so jobs differ.
std::uint64_t run_workload(std::uint64_t salt) {
    Simulator sim;
    std::uint64_t fired = 0;

    struct Ring {
        Simulator* sim;
        std::uint64_t* fired;
        std::int64_t step_ns;
        void operator()() const {
            ++*fired;
            sim->schedule_after(Time::ns(step_ns), Ring{*this});
        }
    };
    const unsigned rings = 4 + static_cast<unsigned>(salt % 5);
    for (unsigned i = 0; i < rings; ++i) {
        sim.schedule_after(Time::ns(50 + 13 * i),
                           Ring{&sim, &fired, 200 + static_cast<std::int64_t>(i)});
    }

    std::vector<std::uint64_t> pids;
    for (unsigned i = 0; i < 6; ++i) {
        pids.push_back(sim.schedule_periodic(
            Time::ns(100 + i), Time::ns(300 + 11 * (salt % 17) + i),
            [&fired](Time) { ++fired; }));
    }

    for (int slice = 0; slice < 20; ++slice) {
        sim.run_until(sim.now() + Time::us(20));
        // Churn: retire one periodic, plant a replacement.
        const std::size_t victim = slice % pids.size();
        if (sim.cancel_periodic(pids[victim])) {
            pids[victim] = sim.schedule_periodic(
                sim.now() + Time::ns(70), Time::ns(250 + 7 * slice),
                [&fired](Time) { ++fired; });
        }
    }
    EXPECT_EQ(sim.processed_events(), fired);
    return sim.processed_events();
}

TEST(SchedulerSimStress, ParallelSimulatorsAttributeEventsPerJobExactly) {
    constexpr std::size_t kJobs = 24;
    std::vector<std::uint64_t> processed(kJobs, 0);
    std::vector<std::uint64_t> thread_delta(kJobs, 0);

    std::vector<Scheduler::Task> tasks;
    tasks.reserve(kJobs);
    for (std::size_t i = 0; i < kJobs; ++i) {
        tasks.push_back([&, i] {
            // A worker runs one task at a time, so the thread-local counter
            // delta across the body is exactly this job's dispatch count.
            const std::uint64_t before = Simulator::thread_events_processed();
            processed[i] = run_workload(i * 7919);
            thread_delta[i] = Simulator::thread_events_processed() - before;
        });
    }

    SchedulerConfig cfg;
    cfg.threads = 8;
    Scheduler scheduler{cfg};
    const auto outcomes = scheduler.run(std::move(tasks));

    ASSERT_EQ(outcomes.size(), kJobs);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kJobs; ++i) {
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
        EXPECT_GT(processed[i], 1000u) << "job " << i << " barely ran";
        EXPECT_EQ(thread_delta[i], processed[i]) << "job " << i;
        total += processed[i];
    }
    EXPECT_GT(total, kJobs * 1000u);
}

}  // namespace
}  // namespace hsw::engine
