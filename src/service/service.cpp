#include "service/service.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "engine/blob.hpp"
#include "engine/cancel.hpp"
#include "engine/engine.hpp"
#include "obs/accesslog.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hsw::service {

namespace {

using protocol::ErrorCode;
using protocol::Source;

obs::Gauge& queue_depth_gauge() {
    static obs::Gauge& g = obs::gauge(
        "hsw_service_queue_depth", "Compute tasks waiting in the admission queue");
    return g;
}

obs::Counter& requests_counter() {
    static obs::Counter& c =
        obs::counter("hsw_service_requests", "Query verb requests received");
    return c;
}

obs::Counter& requests_completed_counter() {
    static obs::Counter& c = obs::counter("hsw_service_requests_completed",
                                          "Query verb requests answered OK");
    return c;
}

obs::Counter& requests_rejected_counter() {
    static obs::Counter& c = obs::counter(
        "hsw_service_requests_rejected",
        "Query verb requests rejected (overload/deadline/unknown/draining/error)");
    return c;
}

obs::Counter& response_hits_counter() {
    static obs::Counter& c = obs::counter(
        "hsw_service_response_hits",
        "Whole query responses answered from the route-key cache");
    return c;
}

obs::Histogram& request_latency_histogram() {
    // 10 us .. ~84 s in x2 steps: covers hot-cache hits through cold
    // full-experiment computes.
    static obs::Histogram& h = obs::histogram(
        "hsw_service_request_latency_ms", obs::exponential_bounds(0.01, 2.0, 23),
        "Query verb end-to-end latency in milliseconds");
    return h;
}

/// Thrown into a flight when the leader could not even enqueue the
/// compute; every waiter maps it to ErrorCode::Overloaded.
struct OverloadError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// Worst-of ordering for aggregating a whole-experiment response's source.
int rank(Source s) {
    switch (s) {
        case Source::HotCache: return 0;
        case Source::DiskCache: return 1;
        case Source::Computed: return 2;
    }
    return 2;
}

std::vector<engine::Experiment> default_registry(bool quick) {
    return engine::survey_experiments(quick ? engine::SurveyTuning::quick()
                                            : engine::SurveyTuning{});
}

/// One structured access-log line per completed query. Runs on the
/// serving path, so everything expensive (the route-key SHA) is gated
/// behind the enabled check and the tail-sampling decision.
void log_query_access(const protocol::Request& request,
                      const protocol::Response& response,
                      std::uint64_t micros) {
    if (!obs::accesslog::enabled()) return;
    const obs::trace::TraceContext ctx = obs::trace::current_context();
    if (!obs::accesslog::should_log(ctx, !response.ok(), micros,
                                    /*retried=*/false)) {
        return;
    }
    obs::accesslog::Record rec;
    rec.trace_id = ctx.trace_id;
    rec.micros = micros;
    if (request.deadline_ms > 0) {
        rec.deadline_slack_us =
            static_cast<std::int64_t>(request.deadline_ms) * 1000 -
            static_cast<std::int64_t>(micros);
    }
    obs::accesslog::set_field(rec.verb, protocol::name(request.verb));
    obs::accesslog::set_field(
        rec.spec, std::string_view{protocol::route_key(request)}.substr(0, 16));
    obs::accesslog::set_field(
        rec.source, response.ok() ? protocol::name(response.source) : "none");
    obs::accesslog::set_field(
        rec.outcome, response.ok() ? std::string_view{"ok"}
                                   : protocol::name(response.code));
    obs::accesslog::record(rec);
}

}  // namespace

std::string ServiceStats::render() const {
    char line[256];
    std::string out = "survey-service stats\n";
    std::snprintf(line, sizeof line,
                  "  requests: %llu received, %llu completed, %llu failed\n",
                  static_cast<unsigned long long>(received),
                  static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(failed));
    out += line;
    std::snprintf(line, sizeof line,
                  "  rejected: %llu overload, %llu deadline, %llu unknown, "
                  "%llu draining\n",
                  static_cast<unsigned long long>(rejected_overload),
                  static_cast<unsigned long long>(rejected_deadline),
                  static_cast<unsigned long long>(rejected_unknown),
                  static_cast<unsigned long long>(rejected_draining));
    out += line;
    std::snprintf(line, sizeof line,
                  "  jobs: %llu hot hits, %llu disk hits, %llu computed, "
                  "%llu coalesced\n",
                  static_cast<unsigned long long>(hot_hits),
                  static_cast<unsigned long long>(disk_hits),
                  static_cast<unsigned long long>(computed),
                  static_cast<unsigned long long>(coalesced));
    out += line;
    std::snprintf(line, sizeof line, "  responses: %llu route-key cache hits\n",
                  static_cast<unsigned long long>(response_hits));
    out += line;
    std::snprintf(line, sizeof line,
                  "  hot-cache: %zu entries, %zu bytes, %llu hits, %llu misses, "
                  "%llu insertions, %llu evictions\n",
                  hot_cache.entries, hot_cache.bytes,
                  static_cast<unsigned long long>(hot_cache.hits),
                  static_cast<unsigned long long>(hot_cache.misses),
                  static_cast<unsigned long long>(hot_cache.insertions),
                  static_cast<unsigned long long>(hot_cache.evictions));
    out += line;
    std::snprintf(line, sizeof line,
                  "  disk-cache: %llu hits, %llu misses, %llu stores\n",
                  static_cast<unsigned long long>(disk_cache.hits),
                  static_cast<unsigned long long>(disk_cache.misses),
                  static_cast<unsigned long long>(disk_cache.stores));
    out += line;
    return out;
}

SurveyService::SurveyService(ServiceConfig cfg)
    : cfg_{std::move(cfg)}, hot_{cfg_.hot_cache} {
    cfg_.workers = std::max(1u, cfg_.workers);
    if (cfg_.max_queue == 0) cfg_.max_queue = 1;
    if (!cfg_.registry_factory) cfg_.registry_factory = default_registry;
    full_registry_ = cfg_.registry_factory(false);
    quick_registry_ = cfg_.registry_factory(true);
    if (cfg_.disk_cache_dir) disk_.emplace(*cfg_.disk_cache_dir);
    workers_.reserve(cfg_.workers);
    for (unsigned i = 0; i < cfg_.workers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

SurveyService::~SurveyService() { drain(); }

void SurveyService::drain() {
    std::call_once(drain_once_, [this] {
        draining_.store(true, std::memory_order_release);
        util::LockGuard lock{pool_lock_};
        while (!queue_.empty() || active_ != 0) pool_idle_cv_.wait(lock);
        stopping_ = true;
        pool_task_cv_.notify_all();
        lock.unlock();
        for (auto& worker : workers_) worker.join();
    });
}

bool SurveyService::draining() const {
    return draining_.load(std::memory_order_acquire);
}

bool SurveyService::shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
}

void SurveyService::worker_loop() {
    for (;;) {
        util::LockGuard lock{pool_lock_};
        while (!stopping_ && queue_.empty()) pool_task_cv_.wait(lock);
        if (queue_.empty()) {
            if (stopping_) return;
            continue;
        }
        auto task = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
        queue_depth_gauge().set(static_cast<std::int64_t>(queue_.size()));
        lock.unlock();
        task();  // never throws: job exceptions are routed into the flight
        lock.lock();
        --active_;
        if (queue_.empty() && active_ == 0) pool_idle_cv_.notify_all();
    }
}

bool SurveyService::try_submit(std::function<void()> task) {
    {
        util::LockGuard lock{pool_lock_};
        if (stopping_ || draining()) return false;
        if (queue_.size() >= cfg_.max_queue) return false;
        queue_.push_back(std::move(task));
        queue_depth_gauge().set(static_cast<std::int64_t>(queue_.size()));
    }
    // Notify after releasing the lock: waking a worker straight into a
    // contended pool_lock_ stalls it (and the submitter) for nothing.
    pool_task_cv_.notify_one();
    return true;
}

SurveyService::StartedJob SurveyService::start_job(
    const engine::Job& job, std::chrono::steady_clock::time_point deadline,
    bool has_deadline) {
    StartedJob started;
    const std::string key = job.spec.hash_hex();

    auto hit = [&] {
        obs::trace::Span span{"hotcache", "service"};
        span.set_label(key);
        return hot_.lookup(key);
    }();
    if (hit) {
        hot_hits_.fetch_add(1, std::memory_order_relaxed);
        static obs::Counter& c =
            obs::counter("hsw_service_hot_hits", "Jobs answered from the hot cache");
        c.inc();
        started.done = true;
        started.outcome =
            JobOutcome{ErrorCode::None, Source::HotCache, std::move(hit), {}};
        return started;
    }

    started.ticket = coalescer_.join(key);
    if (!started.ticket.leader) {
        coalesced_.fetch_add(1, std::memory_order_relaxed);
        static obs::Counter& c = obs::counter(
            "hsw_service_coalesced", "Requests that joined an in-flight computation");
        c.inc();
        return started;
    }

    auto token = std::make_shared<engine::CancelToken>();
    if (has_deadline) token->set_deadline(deadline);

    // The task owns its copy of the job, so it outlives a caller that
    // gives up. The submitter's trace context rides along so the compute's
    // span parents to the request even though it runs on a worker thread.
    auto task = [this, job, key, token, ctx = obs::trace::current_context()]() {
        obs::trace::ContextScope trace_scope{ctx};
        obs::trace::Span span{"engine.job", "service"};
        span.set_label(key);
        try {
            engine::JobResult result =
                engine::run_job(job, disk_ ? &*disk_ : nullptr, token.get());
            const Source source = result.source == engine::JobSource::DiskCache
                                      ? Source::DiskCache
                                      : Source::Computed;
            (source == Source::DiskCache ? disk_hits_ : computed_)
                .fetch_add(1, std::memory_order_relaxed);
            static obs::Counter& c_disk = obs::counter(
                "hsw_service_disk_hits", "Jobs answered from the disk result cache");
            static obs::Counter& c_computed = obs::counter(
                "hsw_service_computed", "Jobs computed from scratch by the service");
            (source == Source::DiskCache ? c_disk : c_computed).inc();
            // Pin across the fan-out: even a tiny hot cache must not drop
            // an entry its flight is still publishing.
            auto value = hot_.insert(key, std::move(result.payload), /*pinned=*/true);
            coalescer_.complete(key, RequestCoalescer::Value{std::move(value), source});
            hot_.unpin(key);
        } catch (...) {
            coalescer_.fail(key, std::current_exception());
        }
    };

    if (!try_submit(std::move(task))) {
        // Queue full (or drain raced us): reject every waiter of this
        // flight with the same structured overload.
        coalescer_.fail(key, std::make_exception_ptr(OverloadError{
                                 "compute queue full (max " +
                                 std::to_string(cfg_.max_queue) + ")"}));
    }
    return started;
}

SurveyService::JobOutcome SurveyService::await_job(
    const engine::Job& job, const RequestCoalescer::Ticket& ticket,
    std::chrono::steady_clock::time_point deadline, bool has_deadline) {
    const std::string label = job.spec.label();
    try {
        if (has_deadline) {
            if (ticket.result.wait_until(deadline) == std::future_status::timeout) {
                rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
                return JobOutcome{ErrorCode::DeadlineExceeded, Source::Computed, nullptr,
                                  "deadline elapsed while " + label + " in flight"};
            }
        } else {
            ticket.result.wait();
        }
        RequestCoalescer::Value value = ticket.result.get();
        return JobOutcome{ErrorCode::None, value.source, std::move(value.payload), {}};
    } catch (const engine::CancelledError& e) {
        rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
        return JobOutcome{ErrorCode::DeadlineExceeded, Source::Computed, nullptr,
                          e.what()};
    } catch (const OverloadError& e) {
        rejected_overload_.fetch_add(1, std::memory_order_relaxed);
        return JobOutcome{ErrorCode::Overloaded, Source::Computed, nullptr, e.what()};
    } catch (const std::exception& e) {
        failed_.fetch_add(1, std::memory_order_relaxed);
        return JobOutcome{ErrorCode::Internal, Source::Computed, nullptr, e.what()};
    }
}

SurveyService::QueryResult SurveyService::query(const protocol::Request& request) {
    received_.fetch_add(1, std::memory_order_relaxed);

    if (draining()) {
        rejected_draining_.fetch_add(1, std::memory_order_relaxed);
        return QueryResult{ErrorCode::ShuttingDown, Source::Computed, nullptr,
                           "service is draining"};
    }

    // Fastest path: a whole response already served for this route key is
    // handed back without touching the registry, jobs, or worker pool --
    // duplicate-heavy hot traffic resolves to one SHA-256 and one
    // shared-lock cache probe. Only successful responses are ever cached,
    // and payload bytes are deterministic per route key, so a hit can
    // never serve stale or rejected bytes.
    const std::string response_key = protocol::route_key(request);
    if (auto hit = hot_.lookup(response_key)) {
        response_hits_.fetch_add(1, std::memory_order_relaxed);
        response_hits_counter().inc();
        completed_.fetch_add(1, std::memory_order_relaxed);
        return QueryResult{ErrorCode::None, Source::HotCache, std::move(hit), {}};
    }

    const std::vector<engine::Experiment>& registry =
        request.quick ? quick_registry_ : full_registry_;
    const engine::Experiment* experiment =
        engine::find_experiment(registry, request.experiment);
    if (!experiment) {
        rejected_unknown_.fetch_add(1, std::memory_order_relaxed);
        std::string known;
        for (const auto& e : registry) {
            if (!known.empty()) known += ' ';
            known += e.name;
        }
        return QueryResult{ErrorCode::UnknownExperiment, Source::Computed, nullptr,
                           "no experiment named '" + request.experiment +
                               "'; registered: " + known};
    }

    // Each resolved job is a copy carrying the request's seed and audit;
    // everything else in its spec comes from the shared registry.
    std::vector<engine::Job> jobs;
    for (const auto& job : experiment->jobs) {
        if (request.point != "*" && job.spec.point != request.point) continue;
        engine::Job& resolved = jobs.emplace_back(job);
        resolved.spec.base_seed = request.seed;
        resolved.spec.audit = request.audit;
        // Points are unique within an experiment; first match wins.
        if (request.point != "*") break;
    }
    if (request.point != "*" && jobs.empty()) {
        rejected_unknown_.fetch_add(1, std::memory_order_relaxed);
        std::string known;
        for (const auto& job : experiment->jobs) {
            if (!known.empty()) known += ' ';
            known += job.spec.point;
        }
        return QueryResult{ErrorCode::UnknownPoint, Source::Computed, nullptr,
                           "experiment " + request.experiment + " has no point '" +
                               request.point + "'; points: " + known};
    }

    const std::chrono::milliseconds deadline_ms =
        request.deadline_ms > 0 ? std::chrono::milliseconds{request.deadline_ms}
                                : cfg_.default_deadline;
    const bool has_deadline = deadline_ms.count() > 0;
    const auto deadline = std::chrono::steady_clock::now() + deadline_ms;

    // Phase 1: start everything (hot probes, coalescer joins, leader
    // submissions) so a multi-job experiment fans across the pool instead
    // of running point by point.
    std::vector<StartedJob> started;
    started.reserve(jobs.size());
    for (const engine::Job& job : jobs) {
        started.push_back(start_job(job, deadline, has_deadline));
    }

    // Phase 2: collect in experiment order.
    std::vector<std::string> payloads(jobs.size());
    std::shared_ptr<const std::string> single_payload;
    Source worst = Source::HotCache;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        JobOutcome outcome;
        if (started[i].done) {
            outcome = std::move(started[i].outcome);
        } else {
            // Followers trace the wait as "coalesce" (the span the ISSUE's
            // tree calls out); the leader's compute itself is traced as
            // "engine.job" on the worker thread.
            obs::trace::Span span{
                started[i].ticket.leader ? "engine.await" : "coalesce",
                "service"};
            span.set_label(jobs[i].spec.hash_hex());
            outcome = await_job(jobs[i], started[i].ticket, deadline, has_deadline);
        }
        if (!outcome.payload && outcome.code == ErrorCode::None) {
            outcome.code = ErrorCode::Internal;
            outcome.message = "job delivered no payload";
        }
        if (outcome.code != ErrorCode::None) {
            return QueryResult{outcome.code, Source::Computed, nullptr,
                               outcome.message};
        }
        if (rank(outcome.source) > rank(worst)) worst = outcome.source;
        if (jobs.size() == 1 && request.point != "*") {
            single_payload = outcome.payload;
        } else {
            payloads[i] = *outcome.payload;
        }
    }

    if (request.point != "*") {
        completed_.fetch_add(1, std::memory_order_relaxed);
        // Cache the response under its route key too (same allocation as
        // the job-level entry -- insert_shared never copies bytes), so the
        // next identical query skips the registry and job resolution.
        hot_.insert_shared(response_key, single_payload);
        return QueryResult{ErrorCode::None, worst, std::move(single_payload), {}};
    }

    // Assemble exactly like the batch engine, then pack the artifacts as
    // one blob so the response is a single verifiable byte stream.
    try {
        const std::vector<engine::Artifact> artifacts =
            experiment->assemble ? experiment->assemble(payloads)
                                 : std::vector<engine::Artifact>{};
        engine::BlobSections sections;
        sections.reserve(artifacts.size());
        for (const auto& artifact : artifacts) {
            const char* prefix =
                artifact.kind == engine::ArtifactKind::Render ? "render:" : "csv:";
            sections.emplace_back(prefix + artifact.filename, artifact.contents);
        }
        completed_.fetch_add(1, std::memory_order_relaxed);
        auto packed =
            std::make_shared<const std::string>(engine::pack_sections(sections));
        hot_.insert_shared(response_key, packed);
        return QueryResult{ErrorCode::None, worst, std::move(packed), {}};
    } catch (const std::exception& e) {
        failed_.fetch_add(1, std::memory_order_relaxed);
        return QueryResult{ErrorCode::Internal, Source::Computed, nullptr,
                           std::string{"assemble failed: "} + e.what()};
    }
}

std::optional<protocol::Response> SurveyService::try_handle_fast(
    const protocol::Request& request) {
    protocol::Response response;
    response.tag = request.tag;
    switch (request.verb) {
        case protocol::Verb::Ping:
            response.payload = "pong";
            return response;
        case protocol::Verb::Health:
            response.payload =
                draining() || shutdown_requested() ? "draining" : "ok";
            return response;
        case protocol::Verb::Query:
            break;
        default:
            return std::nullopt;  // stats/metrics/shutdown take the slow path
    }
    // Draining and rejections need the slow path's structured accounting.
    if (draining()) return std::nullopt;
    const auto t0 = std::chrono::steady_clock::now();
    auto hit = hot_.lookup(protocol::route_key(request));
    if (!hit) return std::nullopt;
    received_.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    response_hits_.fetch_add(1, std::memory_order_relaxed);
    response_hits_counter().inc();
    requests_counter().inc();
    requests_completed_counter().inc();
    response.code = ErrorCode::None;
    response.source = Source::HotCache;
    response.shared_payload = std::move(hit);
    {
        obs::trace::Span span{"hotcache", "service"};
        span.set_label(request.experiment + "/" + request.point);
    }
    log_query_access(request, response,
                     static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count()));
    return response;
}

protocol::Response SurveyService::handle(const protocol::Request& request) {
    protocol::Response response;
    response.tag = request.tag;
    switch (request.verb) {
        case protocol::Verb::Ping:
            response.payload = "pong";
            return response;
        case protocol::Verb::Stats:
            response.payload = stats().render();
            return response;
        case protocol::Verb::Metrics:
            // Ring overflow counters live outside the registry; fold them
            // in so every scrape sees current drop totals.
            obs::trace::publish_overflow_metrics();
            obs::accesslog::publish_overflow_metrics();
            response.payload = request.format == protocol::MetricsFormat::Json
                                   ? obs::render_json()
                                   : obs::render_prometheus();
            return response;
        case protocol::Verb::TraceDump:
            // Collector verb: this process's spans, ready to merge.
            response.payload = obs::trace::export_chrome_json();
            return response;
        case protocol::Verb::Dump: {
            // Debug verb: write a flight dump, answer with its path.
            const std::string path = obs::flight::dump("verb");
            if (path.empty()) {
                response.code = ErrorCode::Internal;
                response.payload = "flight dump failed (dir missing or unwritable)";
            } else {
                response.payload = path;
            }
            return response;
        }
        case protocol::Verb::Shutdown:
            shutdown_requested_.store(true, std::memory_order_release);
            response.payload = "draining";
            return response;
        case protocol::Verb::Health:
            // Liveness/readiness probe: cheap enough for a router to
            // call every probe interval. "draining" tells the prober to
            // eject the shard before the listener actually closes.
            response.payload =
                draining() || shutdown_requested() ? "draining" : "ok";
            return response;
        case protocol::Verb::Query: {
            requests_counter().inc();
            obs::trace::Span span{"service.query", "service"};
            span.set_label(request.experiment + "/" + request.point);
            const auto t0 = std::chrono::steady_clock::now();
            QueryResult result = query(request);
            const auto elapsed = std::chrono::steady_clock::now() - t0;
            request_latency_histogram().record(
                std::chrono::duration<double, std::milli>(elapsed).count());
            (result.ok() ? requests_completed_counter() : requests_rejected_counter())
                .inc();
            response.code = result.code;
            response.source = result.source;
            if (result.ok()) {
                // Hand the cached allocation to the encoder -- a hot
                // response is never copied into the Response.
                response.shared_payload = std::move(result.payload);
            } else {
                response.payload = std::move(result.message);
            }
            log_query_access(
                request, response,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                        .count()));
            return response;
        }
    }
    response.code = ErrorCode::MalformedRequest;
    response.payload = "unhandled verb";
    return response;
}

ServiceStats SurveyService::stats() const {
    ServiceStats s;
    s.received = received_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
    s.rejected_deadline = rejected_deadline_.load(std::memory_order_relaxed);
    s.rejected_unknown = rejected_unknown_.load(std::memory_order_relaxed);
    s.rejected_draining = rejected_draining_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.hot_hits = hot_hits_.load(std::memory_order_relaxed);
    s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
    s.computed = computed_.load(std::memory_order_relaxed);
    s.coalesced = coalesced_.load(std::memory_order_relaxed);
    s.response_hits = response_hits_.load(std::memory_order_relaxed);
    s.hot_cache = hot_.stats();
    if (disk_) s.disk_cache = disk_->counters();
    return s;
}

}  // namespace hsw::service
