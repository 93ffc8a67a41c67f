#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/scheduler.hpp"

namespace hsw::engine {
namespace {

TEST(Scheduler, RunsEveryTaskExactlyOnce) {
    SchedulerConfig cfg;
    cfg.threads = 8;
    Scheduler sched{cfg};

    constexpr int kTasks = 200;
    std::vector<std::atomic<int>> runs(kTasks);
    std::vector<Scheduler::Task> tasks;
    for (int i = 0; i < kTasks; ++i) {
        tasks.push_back([&runs, i] { runs[i].fetch_add(1); });
    }
    const auto outcomes = sched.run(std::move(tasks));

    ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kTasks));
    for (int i = 0; i < kTasks; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "task " << i;
        EXPECT_TRUE(outcomes[i].ok);
        EXPECT_EQ(outcomes[i].index, static_cast<std::size_t>(i));
        EXPECT_EQ(outcomes[i].attempts, 1u);
    }
    EXPECT_EQ(sched.progress().done.load(), static_cast<std::size_t>(kTasks));
    EXPECT_EQ(sched.progress().failed.load(), 0u);
}

TEST(Scheduler, WorkIsSharedAcrossThreads) {
    SchedulerConfig cfg;
    cfg.threads = 4;
    Scheduler sched{cfg};

    std::mutex lock;
    std::set<std::thread::id> seen;
    std::vector<Scheduler::Task> tasks;
    for (int i = 0; i < 64; ++i) {
        tasks.push_back([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            std::lock_guard g{lock};
            seen.insert(std::this_thread::get_id());
        });
    }
    sched.run(std::move(tasks));
    // With 64 x 1 ms tasks on 4 workers, more than one thread must have
    // participated (exact count depends on the host scheduler).
    EXPECT_GT(seen.size(), 1u);
}

TEST(Scheduler, RunsTasksLongestFirst) {
    // Unhinted (0) tasks start last; ties keep index order.
    const std::vector<double> costs{2.0, 0.0, 7.0, 2.0, 9.0, 0.0, 7.0, 1.0};
    {
        Scheduler sched{SchedulerConfig{}};  // one thread: the run order is the start order
        std::vector<std::size_t> order;
        std::vector<Scheduler::Task> tasks;
        for (std::size_t i = 0; i < costs.size(); ++i) {
            tasks.push_back([&order, i] { order.push_back(i); });
        }
        sched.run(std::move(tasks), costs);
        EXPECT_EQ(order, (std::vector<std::size_t>{4, 2, 6, 0, 3, 7, 1, 5}));
    }
    {
        SchedulerConfig cfg;
        cfg.threads = 4;
        Scheduler sched{cfg};
        // Every other task waits (bounded) for the costliest to start, so
        // the start ranks do not depend on which worker the OS runs first.
        std::atomic<bool> costliest_started{false};
        std::atomic<int> next_rank{0};
        std::vector<int> rank(costs.size(), -1);
        std::vector<Scheduler::Task> tasks;
        for (std::size_t i = 0; i < costs.size(); ++i) {
            tasks.push_back([&, i] {
                if (i == 4) {
                    rank[i] = next_rank.fetch_add(1);
                    costliest_started.store(true);
                    return;
                }
                const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(2);
                while (!costliest_started.load() && std::chrono::steady_clock::now() < give_up) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                }
                rank[i] = next_rank.fetch_add(1);
            });
        }
        sched.run(std::move(tasks), costs);
        EXPECT_EQ(rank[4], 0);
    }
}

TEST(Scheduler, IdleWorkersDoNotSpin) {
    // Three workers run out of tasks at once while the fourth sleeps;
    // they must leave rather than burn CPU waiting for the batch to end.
    SchedulerConfig cfg;
    cfg.threads = 4;
    Scheduler sched{cfg};
    std::vector<Scheduler::Task> tasks;
    tasks.push_back([] { std::this_thread::sleep_for(std::chrono::milliseconds(300)); });
    for (int i = 0; i < 3; ++i) tasks.push_back([] {});

    auto cpu_seconds = [] {
        timespec ts{};
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
    };
    const double before = cpu_seconds();
    sched.run(std::move(tasks));
    const double cpu = cpu_seconds() - before;
    EXPECT_LT(cpu, 0.050) << "idle workers used " << cpu * 1e3 << " ms of CPU";
}

TEST(Scheduler, RetriesUntilSuccess) {
    SchedulerConfig cfg;
    cfg.threads = 2;
    cfg.max_attempts = 3;
    Scheduler sched{cfg};

    std::atomic<int> calls{0};
    std::vector<Scheduler::Task> tasks;
    tasks.push_back([&] {
        if (calls.fetch_add(1) < 2) throw std::runtime_error{"transient"};
    });
    const auto outcomes = sched.run(std::move(tasks));

    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].attempts, 3u);
    EXPECT_EQ(calls.load(), 3);
    EXPECT_EQ(sched.progress().retries.load(), 2u);
    EXPECT_EQ(sched.progress().failed.load(), 0u);
}

TEST(Scheduler, PermanentFailureAfterMaxAttempts) {
    SchedulerConfig cfg;
    cfg.threads = 2;
    cfg.max_attempts = 2;
    Scheduler sched{cfg};

    std::atomic<int> calls{0};
    std::vector<Scheduler::Task> tasks;
    tasks.push_back([&] {
        calls.fetch_add(1);
        throw std::runtime_error{"permanent damage"};
    });
    tasks.push_back([] {});  // the batch keeps going around a failure
    const auto outcomes = sched.run(std::move(tasks));

    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_EQ(outcomes[0].error, "permanent damage");
    EXPECT_EQ(calls.load(), 2);
    EXPECT_TRUE(outcomes[1].ok);
    EXPECT_EQ(sched.progress().failed.load(), 1u);
}

TEST(Scheduler, RetryDeadlineStopsRetrying) {
    SchedulerConfig cfg;
    cfg.threads = 1;
    cfg.max_attempts = 100;
    cfg.retry_deadline = std::chrono::milliseconds(20);
    Scheduler sched{cfg};

    std::atomic<int> calls{0};
    std::vector<Scheduler::Task> tasks;
    tasks.push_back([&] {
        calls.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        throw std::runtime_error{"always"};
    });
    const auto outcomes = sched.run(std::move(tasks));

    // First attempt finishes past the deadline, so no retry is scheduled
    // despite the generous attempt budget.
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(calls.load(), 1);
}

TEST(Scheduler, ListenerSeesEveryFinalOutcome) {
    SchedulerConfig cfg;
    cfg.threads = 4;
    Scheduler sched{cfg};

    std::set<std::size_t> reported;
    sched.set_listener([&](const JobOutcome& o) { reported.insert(o.index); });

    std::vector<Scheduler::Task> tasks;
    for (int i = 0; i < 32; ++i) tasks.push_back([] {});
    sched.run(std::move(tasks));
    EXPECT_EQ(reported.size(), 32u);
}

TEST(Scheduler, NonExceptionResultsAreIndexStable) {
    // Results land by index regardless of which worker ran what.
    SchedulerConfig cfg;
    cfg.threads = 8;
    Scheduler sched{cfg};

    std::vector<int> values(50, 0);
    std::vector<Scheduler::Task> tasks;
    for (int i = 0; i < 50; ++i) {
        tasks.push_back([&values, i] { values[i] = i * i; });
    }
    sched.run(std::move(tasks));
    for (int i = 0; i < 50; ++i) EXPECT_EQ(values[i], i * i);
}

}  // namespace
}  // namespace hsw::engine
