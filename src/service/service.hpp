// SurveyService: the long-lived, concurrent front of the experiment engine.
//
// A query names a registered experiment (plus sweep point, seed, audit
// mode) and resolves to engine jobs by spec content hash. The service
// builds two experiment registries, full and quick tuning, once at
// construction; a query copies each job it resolves and sets the copy's
// seed and audit from the request, so no client can grow the registry.
// Three production mechanisms sit between the caller and the
// deterministic engine:
//
//   1. a sharded in-memory LRU hot cache (HotCache) in front of the
//      on-disk ResultCache -- repeat queries never touch the disk;
//   2. single-flight request coalescing (RequestCoalescer) -- concurrent
//      identical specs compute once and fan out to every waiter;
//   3. admission control -- compute runs on a bounded worker pool; a full
//      queue rejects with ErrorCode::Overloaded (never blocks the socket
//      threads indefinitely), per-request deadlines turn into
//      DeadlineExceeded rejections, and drain() finishes in-flight work
//      before shutdown.
//
// Determinism contract: payload bytes served by the service are identical
// to what `hsw_survey` writes for the same spec -- the service only adds
// caching and scheduling, never touches result bytes. Rejections are
// structured (protocol::ErrorCode) and counted in ServiceStats; an
// overloaded service degrades by refusing, not by hanging.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>  // std::once_flag
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/result_cache.hpp"
#include "engine/survey_experiments.hpp"
#include "service/coalescer.hpp"
#include "service/hot_cache.hpp"
#include "service/protocol.hpp"
#include "util/sync.hpp"

namespace hsw::service {

struct ServiceConfig {
    /// Compute worker threads (clamped to at least 1). Socket/caller
    /// threads only wait; all job computation happens here.
    unsigned workers = 4;
    /// Pending (queued, not yet running) compute tasks before admission
    /// control rejects with Overloaded.
    std::size_t max_queue = 64;
    HotCacheConfig hot_cache;
    /// nullopt disables the on-disk layer (hot cache still applies).
    std::optional<std::filesystem::path> disk_cache_dir;
    /// Applied when a request carries deadline_ms == 0; zero = no deadline.
    std::chrono::milliseconds default_deadline{0};
    /// Test seam: builds the experiment registry for one tuning. The
    /// constructor calls it exactly twice, quick = false and quick = true,
    /// and keeps both registries for the life of the service. A query
    /// copies each job it resolves and sets the copy's spec.base_seed and
    /// spec.audit from the request, so the registry's own seed and audit
    /// never reach a job. Defaults to survey_experiments() of SurveyTuning{}
    /// or SurveyTuning::quick().
    std::function<std::vector<engine::Experiment>(bool quick)> registry_factory;
};

struct ServiceStats {
    std::uint64_t received = 0;           // query() calls
    std::uint64_t completed = 0;          // successful responses
    std::uint64_t rejected_overload = 0;
    std::uint64_t rejected_deadline = 0;
    std::uint64_t rejected_unknown = 0;   // unknown experiment or point
    std::uint64_t rejected_draining = 0;
    std::uint64_t failed = 0;             // job threw (ErrorCode::Internal)
    // Per-job provenance tallies (a whole-experiment query counts each job).
    std::uint64_t hot_hits = 0;
    std::uint64_t disk_hits = 0;
    std::uint64_t computed = 0;
    std::uint64_t coalesced = 0;          // follower joins on in-flight specs
    /// Whole responses answered straight from the route_key cache -- the
    /// fastest path; such a query never touches the registry or its jobs.
    std::uint64_t response_hits = 0;
    HotCacheStats hot_cache;
    engine::ResultCache::Counters disk_cache;

    /// Multi-line text block (the `stats` verb's payload).
    [[nodiscard]] std::string render() const;
};

class SurveyService {
public:
    explicit SurveyService(ServiceConfig cfg = {});
    /// Drains: in-flight jobs complete, then workers exit.
    ~SurveyService();

    SurveyService(const SurveyService&) = delete;
    SurveyService& operator=(const SurveyService&) = delete;

    struct QueryResult {
        protocol::ErrorCode code = protocol::ErrorCode::None;
        protocol::Source source = protocol::Source::Computed;
        /// Shared payload bytes on success (hot-cache entries hand out the
        /// same allocation to every reader).
        std::shared_ptr<const std::string> payload;
        std::string message;  // rejection detail
        [[nodiscard]] bool ok() const { return code == protocol::ErrorCode::None; }
    };

    /// Blocking query; callable from any number of threads concurrently.
    /// point "*" runs every job of the experiment and returns the
    /// assembled artifacts packed as blob sections ("csv:<filename>",
    /// "render:<filename>"); a named point returns that job's raw payload
    /// blob, byte-identical to the batch engine's cached bytes.
    [[nodiscard]] QueryResult query(const protocol::Request& request);

    /// Full verb dispatch (ping/query/stats/shutdown) to a wire response.
    [[nodiscard]] protocol::Response handle(const protocol::Request& request);

    /// Non-blocking dispatch attempt for reactor threads: answers ping,
    /// health, and response-cache query hits inline (shared locks and
    /// atomics only -- never the worker pool, disk, or a wait). nullopt
    /// means "would block or needs the slow path"; the caller must then
    /// route the request through handle() on a handler thread.
    [[nodiscard]] std::optional<protocol::Response> try_handle_fast(
        const protocol::Request& request);

    /// Stops admitting new work, waits for queued + running jobs to
    /// finish, and joins the workers. Idempotent, callable concurrently
    /// with query() (late callers get ShuttingDown).
    void drain() EXCLUDES(pool_lock_);

    [[nodiscard]] bool draining() const;
    /// Set once a Shutdown verb has been handled; the server polls this.
    [[nodiscard]] bool shutdown_requested() const;

    [[nodiscard]] ServiceStats stats() const;

private:
    struct JobOutcome {
        protocol::ErrorCode code = protocol::ErrorCode::None;
        protocol::Source source = protocol::Source::Computed;
        std::shared_ptr<const std::string> payload;
        std::string message;
    };
    struct StartedJob {
        bool done = false;      // hot hit: `outcome` already holds the payload
        JobOutcome outcome;     // valid when done
        RequestCoalescer::Ticket ticket;  // valid when !done
    };

    /// Hot-cache probe, coalescer join, and (for leaders) pool submission
    /// of a task that owns its copy of `job`.
    [[nodiscard]] StartedJob start_job(const engine::Job& job,
                                       std::chrono::steady_clock::time_point deadline,
                                       bool has_deadline);
    /// Waits out a ticket and maps exceptions to structured codes.
    [[nodiscard]] JobOutcome await_job(const engine::Job& job,
                                       const RequestCoalescer::Ticket& ticket,
                                       std::chrono::steady_clock::time_point deadline,
                                       bool has_deadline);
    bool try_submit(std::function<void()> task) EXCLUDES(pool_lock_);
    void worker_loop() EXCLUDES(pool_lock_);

    ServiceConfig cfg_;
    HotCache hot_;
    std::optional<engine::ResultCache> disk_;
    RequestCoalescer coalescer_;

    // Written only by the constructor, so queries read them without a lock.
    std::vector<engine::Experiment> full_registry_;
    std::vector<engine::Experiment> quick_registry_;

    // Bounded work queue + workers.
    util::Mutex pool_lock_;
    util::CondVar pool_task_cv_;
    util::CondVar pool_idle_cv_;
    std::deque<std::function<void()>> queue_ GUARDED_BY(pool_lock_);
    unsigned active_ GUARDED_BY(pool_lock_) = 0;
    bool stopping_ GUARDED_BY(pool_lock_) = false;
    std::vector<std::thread> workers_;  // written only by the constructor

    std::atomic<bool> draining_{false};
    std::atomic<bool> shutdown_requested_{false};
    std::once_flag drain_once_;

    // Counters (relaxed; stats() is a snapshot, not a barrier).
    std::atomic<std::uint64_t> received_{0}, completed_{0}, rejected_overload_{0},
        rejected_deadline_{0}, rejected_unknown_{0}, rejected_draining_{0},
        failed_{0}, hot_hits_{0}, disk_hits_{0}, computed_{0}, coalesced_{0},
        response_hits_{0};
};

}  // namespace hsw::service
