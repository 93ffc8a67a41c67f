// Router: the fleet front door for hsw-survey-rpc.
//
// A query routes by its content identity (protocol::route_key, the
// SHA-256 of the spec's canonical fields) through the FleetMap's
// consistent-hash ring to an ordered replica set: primary first, then the
// clockwise failover candidates. Every replica serves any spec
// byte-identically (results are content-addressed), so failing over and
// retrying is always safe -- the only cost is a colder cache on the
// non-primary shard.
//
// Failure handling, in layers:
//
//   * Per-attempt: a TransportError (dial refused, IO timeout, peer died
//     mid-frame) moves to the next replica immediately and counts against
//     the shard's health. Overloaded / ShuttingDown responses also fail
//     over -- another replica can genuinely help. Everything else
//     (UnknownExperiment, DeadlineExceeded, Internal...) is authoritative
//     and returns to the client as-is.
//   * Per-pass: when one walk of the replica set yields nothing, the
//     router backs off (exponential, jittered, capped) and walks again,
//     up to max_passes. Exhaustion returns ErrorCode::Unavailable.
//   * Deadline: a request's deadline-ms budgets the whole routed request.
//     Each attempt forwards only what is left of it, a backoff that would
//     outlast it is not slept, and a spent budget answers
//     DeadlineExceeded.
//   * Health: eject_after consecutive failures eject a shard -- routing
//     skips it (unless every replica is ejected; then it tries anyway
//     rather than fail without evidence). A background prober revisits
//     ejected shards with the `health` verb and readmits on success.
//
// Non-query verbs are fleet-level: `metrics` fans out to every shard,
// merges the snapshots (obs::merge_snapshots) and answers with the fleet
// document (per-shard breakdown included); `stats` renders the router's
// own routing/health counters; `ping` and `health` answer locally.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "router/fleet_map.hpp"
#include "router/upstream.hpp"
#include "service/protocol.hpp"
#include "util/sync.hpp"

namespace hsw::router {

struct RouterConfig {
    FleetMapConfig fleet;
    TransportOptions transport;
    /// Walks over the replica set before giving up (1 = no retry pass).
    unsigned max_passes = 3;
    /// Backoff before pass p is base * 2^(p-1) + jitter(0..base), capped
    /// at 200 ms. The jitter is a fixed-seed sequence (no global RNG).
    std::chrono::milliseconds backoff_base{10};
    /// Consecutive transport failures before a shard is ejected.
    unsigned eject_after = 3;
    /// Health prober cadence; zero disables the prober thread entirely
    /// (ejected shards then only readmit via a successful routed call).
    std::chrono::milliseconds probe_interval{250};
};

/// Point-in-time health of one shard, as stats()/shard_health() report it.
struct ShardHealth {
    std::string name;
    bool ejected = false;
    std::uint64_t consecutive_failures = 0;
    std::uint64_t ejections = 0;
    std::uint64_t readmissions = 0;
};

struct RouterStats {
    std::uint64_t queries = 0;       // query verbs routed
    std::uint64_t forwarded = 0;     // upstream attempts (>= queries)
    std::uint64_t failovers = 0;     // attempts on a non-primary replica
    std::uint64_t retry_passes = 0;  // backoff sleeps taken
    std::uint64_t unavailable = 0;   // replica sets exhausted
    std::vector<ShardHealth> shards;

    /// Multi-line text block (the router's `stats` verb payload).
    [[nodiscard]] std::string render() const;
};

class Router {
public:
    /// `transport` must outlive the router.
    Router(FleetMap map, Transport& transport, RouterConfig cfg = {});
    ~Router();

    Router(const Router&) = delete;
    Router& operator=(const Router&) = delete;

    /// Full verb dispatch; safe from any number of threads concurrently.
    [[nodiscard]] service::protocol::Response handle(
        const service::protocol::Request& request);

    /// Batch dispatch for the front door: query sub-requests are
    /// grouped by target shard (first live replica of each route key) and
    /// forwarded as one pipelined upstream batch per shard, every group
    /// sent before any reply is read; non-query verbs answer locally via
    /// handle(). A group whose upstream dies --
    /// or any sub-request that comes back retriable (Overloaded,
    /// ShuttingDown) -- re-routes through route_query() for the full
    /// per-replica failover treatment, so batch semantics are exactly
    /// "N independent queries, faster" -- a rescued query's deadline
    /// budget counts from the batch's arrival. Returns one response per
    /// request, in request order.
    [[nodiscard]] std::vector<service::protocol::Response> handle_batch(
        const std::vector<service::protocol::Request>& requests);

    /// Stops the prober thread; idempotent. handle() keeps working (a
    /// stopped router just loses background readmission).
    void stop();

    [[nodiscard]] bool shutdown_requested() const {
        return shutdown_requested_.load(std::memory_order_acquire);
    }

    [[nodiscard]] const FleetMap& fleet() const { return map_; }
    [[nodiscard]] RouterStats stats() const;
    [[nodiscard]] std::vector<ShardHealth> shard_health() const;

    /// One prober sweep over every ejected (or never-probed) shard; the
    /// background thread calls this on its cadence, tests call it
    /// directly for determinism.
    void probe_now();

private:
    struct Shard {
        // Liveness is all-atomic: routing reads it on every attempt and
        // must never contend with the prober.
        std::atomic<std::uint64_t> consecutive_failures{0};
        std::atomic<bool> ejected{false};
        std::atomic<std::uint64_t> ejections{0};
        std::atomic<std::uint64_t> readmissions{0};
        std::unique_ptr<ConnectionPool> pool;
    };

    /// Routes one query whose route_key is `key`; its deadline budget
    /// counts from `start`.
    [[nodiscard]] service::protocol::Response route_query(
        const service::protocol::Request& request,
        std::chrono::steady_clock::time_point start, std::string_view key);
    [[nodiscard]] service::protocol::Response aggregate_metrics(
        service::protocol::MetricsFormat format);
    /// True when the response code should be answered by another replica.
    [[nodiscard]] static bool retriable(service::protocol::ErrorCode code);
    void note_success(Shard& shard);
    void note_failure(Shard& shard);
    /// Probes one shard with the health verb; true on success.
    bool probe_shard(std::size_t index);
    void prober_loop();
    [[nodiscard]] std::chrono::milliseconds backoff_delay(unsigned pass);

    FleetMap map_;
    Transport& transport_;
    RouterConfig cfg_;
    std::vector<std::unique_ptr<Shard>> shards_;

    std::atomic<std::uint64_t> queries_{0}, forwarded_{0}, failovers_{0},
        retry_passes_{0}, unavailable_{0};
    std::atomic<std::uint64_t> jitter_state_;
    std::atomic<bool> shutdown_requested_{false};

    util::Mutex prober_lock_;
    util::CondVar prober_cv_;
    bool prober_stop_ GUARDED_BY(prober_lock_) = false;
    std::thread prober_;
};

}  // namespace hsw::router
