#include "engine/scheduler.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/sync.hpp"

namespace hsw::engine {

namespace {
obs::Counter& tasks_counter() {
    static obs::Counter& c = obs::counter(
        "hsw_engine_tasks", "Scheduler task executions (including retry attempts)");
    return c;
}
obs::Counter& retries_counter() {
    static obs::Counter& c = obs::counter(
        "hsw_engine_retries", "Failed tasks run again in place for another attempt");
    return c;
}
obs::Counter& failures_counter() {
    static obs::Counter& c = obs::counter(
        "hsw_engine_failures", "Tasks that exhausted retries or the deadline");
    return c;
}
}  // namespace

struct Scheduler::Batch {
    std::vector<Task> tasks;
    std::vector<std::size_t> order;      // task indices, costliest first
    std::atomic<std::size_t> cursor{0};  // next position in `order`
    std::vector<JobOutcome> outcomes;
    util::Mutex listener_lock;
    std::chrono::steady_clock::time_point started = std::chrono::steady_clock::now();
};

Scheduler::Scheduler(SchedulerConfig cfg) : cfg_{cfg} {
    cfg_.threads = std::max(1u, cfg_.threads);
    cfg_.max_attempts = std::max(1u, cfg_.max_attempts);
}

void Scheduler::work(Batch& batch) {
    // Each draw hands out one position; a draw past the end means no task
    // is left to start, and a retry never puts one back.
    for (std::size_t pos = batch.cursor++; pos < batch.order.size(); pos = batch.cursor++) {
        run_task(batch, batch.order[pos]);
    }
}

void Scheduler::run_task(Batch& batch, std::size_t index) {
    auto& outcome = batch.outcomes[index];
    outcome.index = index;
    for (;;) {
        ++outcome.attempts;
        progress_.running.fetch_add(1, std::memory_order_relaxed);
        const auto t0 = std::chrono::steady_clock::now();
        outcome.ok = true;
        try {
            obs::trace::Span span{"engine.task", "engine"};
            batch.tasks[index]();
        } catch (const std::exception& e) {
            outcome.ok = false;
            outcome.error = e.what();
        } catch (...) {
            outcome.ok = false;
            outcome.error = "unknown exception";
        }
        const auto t1 = std::chrono::steady_clock::now();
        outcome.wall_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
        progress_.running.fetch_sub(1, std::memory_order_relaxed);
        tasks_counter().inc();
        if (outcome.ok) break;

        const bool attempts_left = outcome.attempts < cfg_.max_attempts;
        const bool before_deadline = cfg_.retry_deadline.count() == 0 ||
                                     t1 - batch.started < cfg_.retry_deadline;
        if (!attempts_left || !before_deadline) {
            progress_.failed.fetch_add(1, std::memory_order_relaxed);
            failures_counter().inc();
            break;
        }
        progress_.retries.fetch_add(1, std::memory_order_relaxed);
        retries_counter().inc();
    }

    if (listener_) {
        util::LockGuard lock{batch.listener_lock};
        listener_(outcome);
    }
    progress_.done.fetch_add(1, std::memory_order_relaxed);
}

std::vector<JobOutcome> Scheduler::run(std::vector<Task> tasks, std::span<const double> costs) {
    if (!costs.empty() && costs.size() != tasks.size()) {
        throw std::invalid_argument{"Scheduler::run: one cost per task, or none"};
    }
    Batch batch;
    batch.tasks = std::move(tasks);
    batch.outcomes.resize(batch.tasks.size());
    batch.order.resize(batch.tasks.size());
    std::iota(batch.order.begin(), batch.order.end(), std::size_t{0});
    if (!costs.empty()) {
        std::stable_sort(batch.order.begin(), batch.order.end(),
                         [costs](std::size_t a, std::size_t b) { return costs[a] > costs[b]; });
    }
    progress_.queued.store(batch.tasks.size(), std::memory_order_relaxed);

    const std::size_t workers =
        std::min<std::size_t>(cfg_.threads, std::max<std::size_t>(1, batch.tasks.size()));
    if (workers == 1) {
        work(batch);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            pool.emplace_back([this, &batch] { work(batch); });
        }
        for (auto& t : pool) t.join();
    }
    return std::move(batch.outcomes);
}

}  // namespace hsw::engine
