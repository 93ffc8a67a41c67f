#include "router/router.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "obs/accesslog.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/server.hpp"
#include "util/hash.hpp"

namespace hsw::router {

namespace {

using service::protocol::ErrorCode;
using service::protocol::MetricsFormat;
using service::protocol::Request;
using service::protocol::Response;
using service::protocol::Verb;

/// Cap on one retry pass's backoff, and the seed of its jitter sequence.
constexpr std::chrono::milliseconds kBackoffMax{200};
constexpr std::uint64_t kJitterSeed = 0x5EED;

obs::Counter& queries_counter() {
    static obs::Counter& c =
        obs::counter("hsw_router_queries", "Query verbs routed to the fleet");
    return c;
}
obs::Counter& attempts_counter() {
    static obs::Counter& c = obs::counter("hsw_router_upstream_attempts",
                                          "Upstream query attempts (incl. retries)");
    return c;
}
obs::Counter& failovers_counter() {
    static obs::Counter& c = obs::counter(
        "hsw_router_failovers", "Query attempts served by a non-primary replica");
    return c;
}
obs::Counter& retry_passes_counter() {
    static obs::Counter& c = obs::counter(
        "hsw_router_retry_passes", "Backoff sleeps between replica-set walks");
    return c;
}
obs::Counter& unavailable_counter() {
    static obs::Counter& c = obs::counter(
        "hsw_router_unavailable", "Queries that exhausted every replica");
    return c;
}
obs::Counter& ejections_counter() {
    static obs::Counter& c =
        obs::counter("hsw_router_ejections", "Shards ejected by health tracking");
    return c;
}
obs::Counter& readmissions_counter() {
    static obs::Counter& c = obs::counter(
        "hsw_router_readmissions", "Ejected shards readmitted after a good probe");
    return c;
}
obs::Histogram& route_latency_histogram() {
    // 10 us .. ~84 s in x2 steps, matching the shard-side request
    // histogram so fleet merges stay bucket-compatible.
    static obs::Histogram& h = obs::histogram(
        "hsw_router_query_latency_ms", obs::exponential_bounds(0.01, 2.0, 23),
        "Routed query end-to-end latency in milliseconds");
    return h;
}

/// One access-log line per routed query, emitted where the outcome (and
/// the retry count) is finally known.
void log_routed_access(const Request& request, const Response& response,
                       std::string_view route_key_hex,
                       std::string_view shard_name, std::uint32_t retries,
                       std::uint64_t micros) {
    if (!obs::accesslog::enabled()) return;
    const obs::trace::TraceContext ctx = obs::trace::current_context();
    if (!obs::accesslog::should_log(ctx, !response.ok(), micros, retries > 0)) {
        return;
    }
    obs::accesslog::Record rec;
    rec.trace_id = ctx.trace_id;
    rec.micros = micros;
    rec.retries = retries;
    if (request.deadline_ms > 0) {
        rec.deadline_slack_us =
            static_cast<std::int64_t>(request.deadline_ms) * 1000 -
            static_cast<std::int64_t>(micros);
    }
    obs::accesslog::set_field(rec.verb, service::protocol::name(request.verb));
    obs::accesslog::set_field(rec.spec, route_key_hex.substr(0, 16));
    obs::accesslog::set_field(rec.shard, shard_name);
    obs::accesslog::set_field(
        rec.source, response.ok() ? service::protocol::name(response.source)
                                  : std::string_view{"none"});
    obs::accesslog::set_field(
        rec.outcome, response.ok() ? std::string_view{"ok"}
                                   : service::protocol::name(response.code));
    obs::accesslog::record(rec);
}

}  // namespace

std::string RouterStats::render() const {
    std::string out;
    out += "router.queries " + std::to_string(queries) + "\n";
    out += "router.forwarded " + std::to_string(forwarded) + "\n";
    out += "router.failovers " + std::to_string(failovers) + "\n";
    out += "router.retry_passes " + std::to_string(retry_passes) + "\n";
    out += "router.unavailable " + std::to_string(unavailable) + "\n";
    for (const auto& s : shards) {
        out += "shard." + s.name + ".state ";
        out += s.ejected ? "ejected" : "live";
        out += "\n";
        out += "shard." + s.name + ".consecutive_failures " +
               std::to_string(s.consecutive_failures) + "\n";
        out += "shard." + s.name + ".ejections " + std::to_string(s.ejections) +
               "\n";
        out += "shard." + s.name + ".readmissions " +
               std::to_string(s.readmissions) + "\n";
    }
    return out;
}

Router::Router(FleetMap map, Transport& transport, RouterConfig cfg)
    : map_{std::move(map)},
      transport_{transport},
      cfg_{cfg},
      jitter_state_{kJitterSeed} {
    shards_.reserve(map_.shards().size());
    for (const auto& endpoint : map_.shards()) {
        auto shard = std::make_unique<Shard>();
        shard->pool =
            std::make_unique<ConnectionPool>(transport_, endpoint, cfg_.transport);
        shards_.push_back(std::move(shard));
    }
    if (cfg_.probe_interval.count() > 0) {
        prober_ = std::thread{[this] { prober_loop(); }};
    }
}

Router::~Router() { stop(); }

void Router::stop() {
    {
        util::LockGuard lock{prober_lock_};
        if (prober_stop_) return;
        prober_stop_ = true;
    }
    prober_cv_.notify_all();
    if (prober_.joinable()) prober_.join();
}

Response Router::handle(const Request& request) {
    Response response;
    switch (request.verb) {
        case Verb::Ping:
            response.payload = "pong";
            return response;
        case Verb::Health:
            response.payload = shutdown_requested() ? "draining" : "ok";
            return response;
        case Verb::Stats:
            response.payload = stats().render();
            return response;
        case Verb::Shutdown:
            shutdown_requested_.store(true, std::memory_order_release);
            response.payload = "draining";
            return response;
        case Verb::Metrics:
            return aggregate_metrics(request.format);
        case Verb::TraceDump:
            // The router answers with its *own* spans; a collector merges
            // them with per-shard trace_dump payloads (see hsw_trace).
            response.payload = obs::trace::export_chrome_json();
            return response;
        case Verb::Dump: {
            const std::string path = obs::flight::dump("verb");
            if (path.empty()) {
                response.code = ErrorCode::Internal;
                response.payload = "flight dump failed (dir missing or unwritable)";
            } else {
                response.payload = path;
            }
            return response;
        }
        case Verb::Query:
            return route_query(request, std::chrono::steady_clock::now(),
                               service::protocol::route_key(request));
    }
    response.code = ErrorCode::MalformedRequest;
    response.payload = "unhandled verb";
    return response;
}

bool Router::retriable(ErrorCode code) {
    // Overloaded: this replica's queue is full, another may have room.
    // ShuttingDown: the shard is draining; its replicas are not.
    // Everything else is a property of the request or of the fleet's data,
    // not of the replica that answered -- retrying elsewhere cannot help,
    // and DeadlineExceeded means the client's budget is already spent.
    return code == ErrorCode::Overloaded || code == ErrorCode::ShuttingDown;
}

std::chrono::milliseconds Router::backoff_delay(unsigned pass) {
    const auto base = cfg_.backoff_base.count();
    if (base <= 0) return std::chrono::milliseconds{0};
    // Deterministic jitter: a splitmix64 walk seeded by kJitterSeed.
    // No global RNG, reproducible under test.
    const std::uint64_t draw =
        util::mix64(jitter_state_.fetch_add(0x9E3779B97F4A7C15ULL,
                                            std::memory_order_relaxed));
    const long long exp = base << (pass - 1 < 16 ? pass - 1 : 16);
    const long long jitter = static_cast<long long>(
        draw % static_cast<std::uint64_t>(base));
    const long long capped =
        std::min<long long>(exp + jitter, kBackoffMax.count());
    return std::chrono::milliseconds{capped};
}

void Router::note_success(Shard& shard) {
    shard.consecutive_failures.store(0, std::memory_order_relaxed);
    if (shard.ejected.exchange(false, std::memory_order_acq_rel)) {
        shard.readmissions.fetch_add(1, std::memory_order_relaxed);
        readmissions_counter().inc();
    }
}

void Router::note_failure(Shard& shard) {
    const std::uint64_t failures =
        shard.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
    if (failures >= cfg_.eject_after &&
        !shard.ejected.exchange(true, std::memory_order_acq_rel)) {
        shard.ejections.fetch_add(1, std::memory_order_relaxed);
        ejections_counter().inc();
        // Idle connections to a misbehaving shard are suspect: drop them
        // so readmission starts from fresh dials.
        shard.pool->clear_idle();
    }
}

Response Router::route_query(const Request& request,
                             std::chrono::steady_clock::time_point start,
                             std::string_view key) {
    queries_counter().inc();
    queries_.fetch_add(1, std::memory_order_relaxed);
    // The frame server installs the request's trace context before its
    // handler runs, but route_query is also reached bare (batch rescue
    // path, tests): adopt the wire context only when the thread carries
    // none, so an existing server.request parent edge is preserved.
    std::optional<obs::trace::ContextScope> inbound_scope;
    if (!obs::trace::current_context().valid() && request.has_trace()) {
        inbound_scope.emplace(obs::trace::TraceContext{
            request.trace_id, request.trace_parent, request.trace_flags});
    }
    obs::trace::Span span{"router.route", "router"};
    span.set_label(request.experiment + "/" + request.point);

    const std::vector<std::size_t> replicas = map_.replica_set(key);

    Response last_error;
    last_error.code = ErrorCode::Unavailable;
    last_error.payload = "no replica reachable";

    const auto elapsed_us = [&start] {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
    };
    // Milliseconds left of the request's deadline budget, less only whole
    // elapsed milliseconds (so a first attempt forwards the full budget);
    // meaningful only when deadline_ms != 0 (0 = no deadline).
    const auto budget_left_ms = [&request, &elapsed_us] {
        return static_cast<std::int64_t>(request.deadline_ms) -
               static_cast<std::int64_t>(elapsed_us() / 1000);
    };
    const bool budgeted = request.deadline_ms > 0;
    bool spent = false;
    std::uint32_t attempt = 0;
    for (unsigned pass = 0; pass < cfg_.max_passes && !spent; ++pass) {
        if (pass > 0) {
            const std::chrono::milliseconds delay = backoff_delay(pass);
            if (budgeted && delay.count() >= budget_left_ms()) {
                spent = true;  // no attempt could run after the sleep
                break;
            }
            retry_passes_.fetch_add(1, std::memory_order_relaxed);
            retry_passes_counter().inc();
            std::this_thread::sleep_for(delay);
        }
        bool all_ejected = true;
        for (const std::size_t idx : replicas) {
            if (!shards_[idx]->ejected.load(std::memory_order_acquire)) {
                all_ejected = false;
                break;
            }
        }
        for (std::size_t i = 0; i < replicas.size(); ++i) {
            Shard& shard = *shards_[replicas[i]];
            // Skip ejected replicas -- unless every candidate is ejected,
            // in which case trying beats failing without evidence.
            if (!all_ejected && shard.ejected.load(std::memory_order_acquire)) {
                continue;
            }
            Request traced = request;
            if (budgeted) {
                const std::int64_t left_ms = budget_left_ms();
                if (left_ms <= 0) {
                    spent = true;
                    break;
                }
                traced.deadline_ms = static_cast<std::uint32_t>(left_ms);
            }
            const std::string& shard_name = map_.shards()[replicas[i]].name;
            forwarded_.fetch_add(1, std::memory_order_relaxed);
            attempts_counter().inc();
            if (i > 0) {
                failovers_.fetch_add(1, std::memory_order_relaxed);
                failovers_counter().inc();
            }
            try {
                // Every attempt is its own child span under router.route;
                // the retry annotation plus the forced-sampling override
                // make failover hops stand out (and survive tail
                // sampling) without changing the shared trace_id.
                obs::trace::Span upstream_span{"upstream.call", "router"};
                upstream_span.set_label(shard_name);
                if (attempt > 0) {
                    upstream_span.set_retry(attempt);
                    obs::trace::force_current();
                }
                ++attempt;
                // The upstream.call span parents the shard's spans.
                service::stamp_trace(traced);
                auto lease = shard.pool->acquire();
                Response response = lease.call(traced);
                note_success(shard);
                if (!retriable(response.code)) {
                    route_latency_histogram().record(
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count());
                    log_routed_access(request, response, key, shard_name,
                                      attempt - 1, elapsed_us());
                    return response;
                }
                last_error = std::move(response);
            } catch (const TransportError& e) {
                note_failure(shard);
                obs::trace::force_current();
                last_error.code = ErrorCode::Unavailable;
                last_error.payload = std::string{"transport: "} + e.what();
            }
        }
    }
    if (spent || (budgeted && budget_left_ms() <= 0)) {
        // The client stops waiting at its deadline; a late Overloaded or
        // Unavailable would only hide that the budget ran out.
        last_error.code = ErrorCode::DeadlineExceeded;
        last_error.payload = "deadline-ms ";
        last_error.payload.append(std::to_string(request.deadline_ms))
            .append(" spent after ")
            .append(std::to_string(attempt))
            .append(" upstream attempt(s)");
    } else {
        unavailable_.fetch_add(1, std::memory_order_relaxed);
        unavailable_counter().inc();
    }
    log_routed_access(request, last_error, key, {},
                      attempt > 0 ? attempt - 1 : 0, elapsed_us());
    // Exhausted: either Unavailable (nothing answered), the last
    // Overloaded/ShuttingDown the fleet gave us, or the spent budget --
    // all honest.
    return last_error;
}

std::vector<Response> Router::handle_batch(const std::vector<Request>& requests) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<Response> responses(requests.size());
    // Group query sub-requests by the shard that would serve them today:
    // the first live replica of each route key (or the primary when the
    // whole replica set is ejected -- same "try anyway" rule as
    // route_query). Everything else answers locally. Each key is hashed
    // once; a rescue reuses it.
    std::vector<std::string> keys(requests.size());
    std::vector<std::vector<std::size_t>> by_shard(shards_.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Request& request = requests[i];
        if (request.verb != Verb::Query) {
            responses[i] = handle(request);
            responses[i].tag = request.tag;
            continue;
        }
        keys[i] = service::protocol::route_key(request);
        const std::vector<std::size_t> replicas = map_.replica_set(keys[i]);
        std::size_t target = replicas.front();
        for (const std::size_t idx : replicas) {
            if (!shards_[idx]->ejected.load(std::memory_order_acquire)) {
                target = idx;
                break;
            }
        }
        by_shard[target].push_back(i);
    }

    // Scatter: every group goes out before any reply is read, so the
    // shards work at once and a batch costs one upstream round trip, not
    // one per shard.
    std::vector<std::optional<ConnectionPool::Lease>> leases(shards_.size());
    for (std::size_t shard_index = 0; shard_index < by_shard.size(); ++shard_index) {
        const std::vector<std::size_t>& indices = by_shard[shard_index];
        if (indices.empty()) continue;
        Shard& shard = *shards_[shard_index];
        std::vector<Request> group;
        group.reserve(indices.size());
        for (const std::size_t idx : indices) group.push_back(requests[idx]);
        queries_counter().inc(group.size());
        queries_.fetch_add(group.size(), std::memory_order_relaxed);
        forwarded_.fetch_add(group.size(), std::memory_order_relaxed);
        attempts_counter().inc(group.size());

        std::optional<ConnectionPool::Lease>& lease = leases[shard_index];
        try {
            lease.emplace(shard.pool->acquire());
            lease->send_batch(std::move(group));
        } catch (const TransportError&) {
            lease.reset();  // drops a connection whose send failed
            note_failure(shard);
        }
    }

    // Gather every group, so each lease goes back to the pool before a
    // rescue needs a connection.
    std::vector<std::size_t> rescue;
    for (std::size_t shard_index = 0; shard_index < by_shard.size(); ++shard_index) {
        const std::vector<std::size_t>& indices = by_shard[shard_index];
        if (indices.empty()) continue;
        Shard& shard = *shards_[shard_index];
        std::optional<ConnectionPool::Lease>& lease = leases[shard_index];
        bool delivered = false;
        if (lease) {
            try {
                std::vector<Response> group_responses = lease->receive_batch();
                note_success(shard);
                for (std::size_t j = 0; j < indices.size(); ++j) {
                    responses[indices[j]] = std::move(group_responses[j]);
                }
                delivered = true;
            } catch (const TransportError&) {
                note_failure(shard);
            }
            lease.reset();
        }
        for (const std::size_t idx : indices) {
            if (!delivered || retriable(responses[idx].code)) rescue.push_back(idx);
        }
    }

    // Slow path: a group's upstream died, or one answer is retriable
    // elsewhere. route_query owns failover, backoff, and the Unavailable
    // verdict, within what the batch left of the deadline budget.
    for (const std::size_t idx : rescue) {
        responses[idx] = route_query(requests[idx], start, keys[idx]);
        responses[idx].tag = requests[idx].tag;
    }
    return responses;
}

bool Router::probe_shard(std::size_t index) {
    Shard& shard = *shards_[index];
    Request probe;
    probe.verb = Verb::Health;
    try {
        auto lease = shard.pool->acquire();
        const Response response = lease.call(probe);
        if (response.ok() && response.payload == "ok") {
            note_success(shard);
            return true;
        }
        note_failure(shard);
        return false;
    } catch (const TransportError&) {
        note_failure(shard);
        return false;
    }
}

void Router::probe_now() {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        // Healthy shards prove themselves on live traffic; probing is for
        // the ejected (so they can come back) and a first-contact sweep
        // would add startup noise, so skip live shards entirely.
        if (shards_[i]->ejected.load(std::memory_order_acquire)) {
            probe_shard(i);
        }
    }
}

void Router::prober_loop() {
    util::LockGuard lock{prober_lock_};
    while (!prober_stop_) {
        prober_cv_.wait_for(lock, cfg_.probe_interval);
        if (prober_stop_) break;
        lock.unlock();
        probe_now();
        lock.lock();
    }
}

Response Router::aggregate_metrics(MetricsFormat format) {
    std::vector<std::pair<std::string, obs::MetricsSnapshot>> shards;
    Request scrape;
    scrape.verb = Verb::Metrics;
    scrape.format = MetricsFormat::Json;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard& shard = *shards_[i];
        if (shard.ejected.load(std::memory_order_acquire)) {
            // An ejected shard still appears in the fleet document -- as a
            // synthesized one-gauge snapshot -- so dashboards (hsw_top
            // --fleet) can mark it instead of silently losing the row.
            obs::MetricsSnapshot synthesized;
            obs::GaugeSample ejected_gauge;
            ejected_gauge.name = "router_shard_ejected";
            ejected_gauge.help =
                "Shard currently ejected from routing (router-synthesized)";
            ejected_gauge.value = 1;
            synthesized.gauges.push_back(std::move(ejected_gauge));
            shards.emplace_back(map_.shards()[i].name, std::move(synthesized));
            continue;
        }
        try {
            auto lease = shard.pool->acquire();
            const Response response = lease.call(scrape);
            if (!response.ok()) continue;
            if (auto snap = obs::parse_snapshot_json(response.payload_view())) {
                shards.emplace_back(map_.shards()[i].name, std::move(*snap));
            }
            note_success(shard);
        } catch (const TransportError&) {
            note_failure(shard);
        }
    }
    // The router's own process counters ride along as one more part, so
    // the merged fleet document includes front-door traffic. Ring-overflow
    // gauges refresh first, like the shards do for their own scrapes.
    obs::trace::publish_overflow_metrics();
    obs::accesslog::publish_overflow_metrics();
    shards.emplace_back("router", obs::snapshot_metrics());

    std::vector<obs::MetricsSnapshot> parts;
    parts.reserve(shards.size());
    for (const auto& [name, snap] : shards) parts.push_back(snap);
    const obs::MetricsSnapshot merged = obs::merge_snapshots(parts);

    Response response;
    response.payload = format == MetricsFormat::Json
                           ? obs::render_fleet_json(merged, shards)
                           : obs::render_fleet_prometheus(merged, shards);
    return response;
}

RouterStats Router::stats() const {
    RouterStats s;
    s.queries = queries_.load(std::memory_order_relaxed);
    s.forwarded = forwarded_.load(std::memory_order_relaxed);
    s.failovers = failovers_.load(std::memory_order_relaxed);
    s.retry_passes = retry_passes_.load(std::memory_order_relaxed);
    s.unavailable = unavailable_.load(std::memory_order_relaxed);
    s.shards = shard_health();
    return s;
}

std::vector<ShardHealth> Router::shard_health() const {
    std::vector<ShardHealth> out;
    out.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const Shard& shard = *shards_[i];
        ShardHealth h;
        h.name = map_.shards()[i].name;
        h.ejected = shard.ejected.load(std::memory_order_acquire);
        h.consecutive_failures =
            shard.consecutive_failures.load(std::memory_order_relaxed);
        h.ejections = shard.ejections.load(std::memory_order_relaxed);
        h.readmissions = shard.readmissions.load(std::memory_order_relaxed);
        out.push_back(std::move(h));
    }
    return out;
}

}  // namespace hsw::router
