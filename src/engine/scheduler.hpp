// Longest-first thread pool for independent experiment jobs.
//
// run() sorts the batch by each task's cost hint, highest first (ties and
// unhinted tasks in index order, unhinted last), and its workers take the
// next task from one shared cursor. A worker whose cursor draw passes the
// end returns: nothing is dealt, stolen or waited for, so an idle worker
// costs no CPU. Tasks must be independent: determinism comes from each task
// writing to its own pre-allocated result slot, never from run order.
//
// A task that throws runs again at once on the same worker (up to
// `max_attempts` total attempts, and only while the batch is younger than
// `retry_deadline`); a task that keeps throwing is recorded as failed and
// the rest of the batch continues. Counters in Progress are atomics a
// monitoring thread may read while run() is in flight.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace hsw::engine {

struct SchedulerConfig {
    /// Worker thread count; 0 is clamped to 1.
    unsigned threads = 1;
    /// Total attempts per task (first run + retries).
    unsigned max_attempts = 2;
    /// No retry starts after this much wall time from the start of run().
    /// zero() disables the deadline.
    std::chrono::milliseconds retry_deadline{0};
};

struct JobOutcome {
    std::size_t index = 0;     // position in the submitted batch
    bool ok = false;
    unsigned attempts = 0;
    std::string error;         // last exception message when !ok
    double wall_ms = 0.0;      // total execution time across attempts
};

class Scheduler {
public:
    using Task = std::function<void()>;
    /// Invoked after a task finishes for good (success or permanent
    /// failure). Serialized by the scheduler; may run on any worker.
    using Listener = std::function<void(const JobOutcome&)>;

    struct Progress {
        std::atomic<std::size_t> queued{0};
        std::atomic<std::size_t> running{0};
        std::atomic<std::size_t> done{0};
        std::atomic<std::size_t> failed{0};   // permanent failures (subset of done)
        std::atomic<std::size_t> retries{0};  // attempts after an exception
    };

    explicit Scheduler(SchedulerConfig cfg = {});

    void set_listener(Listener listener) { listener_ = std::move(listener); }

    /// Runs the batch to completion; outcomes are indexed like `tasks`.
    /// `costs`, when given, holds one hint per task (0 = no hint): the
    /// costliest start first. Workers live only for the duration of the call.
    std::vector<JobOutcome> run(std::vector<Task> tasks, std::span<const double> costs = {});

    [[nodiscard]] const Progress& progress() const { return progress_; }

private:
    struct Batch;
    void work(Batch& batch);
    void run_task(Batch& batch, std::size_t index);

    SchedulerConfig cfg_;
    Listener listener_;
    Progress progress_;
};

}  // namespace hsw::engine
