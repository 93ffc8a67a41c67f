#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pcu/pcu.hpp"
#include "sim/simulator.hpp"
#include "util/sync.hpp"

namespace hsw::engine {

namespace {

struct FlatJob {
    const Experiment* experiment = nullptr;
    const Job* job = nullptr;
    std::size_t payload_slot = 0;  // index into its experiment's payload list
};

obs::Counter& job_hits_counter() {
    static obs::Counter& c = obs::counter(
        "hsw_engine_job_cache_hits", "run_job / run_experiments disk-cache hits");
    return c;
}
obs::Counter& job_computed_counter() {
    static obs::Counter& c = obs::counter(
        "hsw_engine_jobs_computed", "Jobs whose body actually ran (cache misses)");
    return c;
}

}  // namespace

std::string RunReport::summary() const {
    char line[160];
    std::string out;
    std::snprintf(line, sizeof line,
                  "engine: %zu jobs, %zu cache hits, %zu computed, %zu retries, "
                  "%zu failed, %.0f ms total\n",
                  jobs.size(), cache_hits, cache_misses, retries, failures, wall_ms);
    out += line;
    if (cache_enabled) {
        std::snprintf(line, sizeof line,
                      "  result-cache: %llu hits, %llu misses, %llu stores\n",
                      static_cast<unsigned long long>(disk_cache.hits),
                      static_cast<unsigned long long>(disk_cache.misses),
                      static_cast<unsigned long long>(disk_cache.stores));
        out += line;
    }

    std::vector<const JobStats*> slowest;
    std::uint64_t total_events = 0;
    pcu::TickCounts ticks;
    double total_body_ms = 0.0;
    for (const auto& j : jobs) {
        if (j.cache_hit) continue;
        slowest.push_back(&j);
        total_events += j.sim_events;
        ticks.evaluated += j.pcu_evaluated;
        ticks.gathered += j.pcu_gathered;
        ticks.searched += j.pcu_searched;
        total_body_ms += j.wall_ms;
    }
    if (total_events > 0 && total_body_ms > 0.0) {
        std::snprintf(line, sizeof line,
                      "  sim-events: %llu dispatched, %.0f events/sec per worker\n",
                      static_cast<unsigned long long>(total_events),
                      static_cast<double>(total_events) / (total_body_ms / 1000.0));
        out += line;
    }
    if (ticks.evaluated > 0) {
        std::snprintf(line, sizeof line,
                      "  pcu-ticks: %llu evaluated, %llu gathered, %llu searched\n",
                      static_cast<unsigned long long>(ticks.evaluated),
                      static_cast<unsigned long long>(ticks.gathered),
                      static_cast<unsigned long long>(ticks.searched));
        out += line;
    }
    std::sort(slowest.begin(), slowest.end(),
              [](const JobStats* a, const JobStats* b) { return a->wall_ms > b->wall_ms; });
    const std::size_t shown = std::min<std::size_t>(slowest.size(), 3);
    for (std::size_t i = 0; i < shown; ++i) {
        std::snprintf(line, sizeof line, "  slowest: %s/%s %.0f ms, %.0f events/sec%s\n",
                      slowest[i]->experiment.c_str(), slowest[i]->point.c_str(),
                      slowest[i]->wall_ms, slowest[i]->events_per_sec,
                      slowest[i]->ok ? "" : " (FAILED)");
        out += line;
    }
    if (!diagnostics.empty()) out += diagnostics.summary();
    return out;
}

RunReport run_experiments(const std::vector<Experiment>& experiments,
                          const RunOptions& options) {
    const auto run_start = std::chrono::steady_clock::now();
    RunReport report;

    std::optional<ResultCache> cache;
    if (options.cache_dir) cache.emplace(*options.cache_dir);

    // Flatten every experiment's jobs into one batch. Payload slots are
    // fixed up front so workers write results by position and assembly
    // order is independent of completion order.
    std::vector<FlatJob> flat;
    std::vector<std::vector<std::string>> payloads(experiments.size());
    for (std::size_t e = 0; e < experiments.size(); ++e) {
        payloads[e].resize(experiments[e].jobs.size());
        for (std::size_t j = 0; j < experiments[e].jobs.size(); ++j) {
            flat.push_back(FlatJob{&experiments[e], &experiments[e].jobs[j], j});
        }
    }

    report.jobs.resize(flat.size());
    std::vector<std::size_t> experiment_of(flat.size(), 0);
    for (std::size_t i = 0; i < flat.size(); ++i) {
        for (std::size_t e = 0; e < experiments.size(); ++e) {
            if (&experiments[e] == flat[i].experiment) experiment_of[i] = e;
        }
        auto& stats = report.jobs[i];
        stats.experiment = flat[i].experiment->name;
        stats.point = flat[i].job->spec.point;
        stats.spec_hash = flat[i].job->spec.hash_hex().substr(0, 12);
    }

    util::Mutex progress_lock;
    std::atomic<std::size_t> resolved{0};
    auto emit = [&](ProgressEvent::Kind kind, const FlatJob& fj, unsigned attempts,
                    double wall_ms, double events_per_sec) {
        if (!options.on_progress) return;
        ProgressEvent ev;
        ev.kind = kind;
        ev.label = fj.job->spec.label();
        ev.attempts = attempts;
        ev.wall_ms = wall_ms;
        ev.events_per_sec = events_per_sec;
        ev.done = resolved.load(std::memory_order_relaxed);
        ev.total = flat.size();
        util::LockGuard lock{progress_lock};
        options.on_progress(ev);
    };

    // Cache probe happens inside the task, on the worker: entry
    // verification (payload SHA-256) is itself parallelizable work.
    std::vector<Scheduler::Task> tasks;
    std::vector<double> costs;
    tasks.reserve(flat.size());
    costs.reserve(flat.size());
    for (std::size_t i = 0; i < flat.size(); ++i) {
        costs.push_back(flat[i].job->cost);
        tasks.push_back([&, i] {
            const FlatJob& fj = flat[i];
            auto& stats = report.jobs[i];
            if (cache && !stats.cache_hit) {
                if (auto hit = cache->load(fj.job->spec)) {
                    payloads[experiment_of[i]][fj.payload_slot] = std::move(*hit);
                    stats.cache_hit = true;
                    stats.ok = true;
                    job_hits_counter().inc();
                    resolved.fetch_add(1, std::memory_order_relaxed);
                    emit(ProgressEvent::Kind::CacheHit, fj, 0, 0.0, 0.0);
                    return;
                }
            }
            // Bracket the job body with the worker thread's event and PCU
            // counters: job closures are opaque, but every simulator and
            // controller they drive ticks the thread-local counts, so the
            // deltas are this job's work (last attempt wins on retries).
            const std::uint64_t events_before = sim::Simulator::thread_events_processed();
            const pcu::TickCounts ticks_before = pcu::PcuController::thread_tick_counts();
            const auto body_start = std::chrono::steady_clock::now();
            std::string payload;
            {
                obs::trace::Span span{"engine.job", "engine"};
                span.set_label(fj.job->spec.label());
                payload = fj.job->run(fj.job->spec);
                span.set_events(sim::Simulator::thread_events_processed() -
                                events_before);
            }
            const double body_secs =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - body_start)
                    .count();
            job_computed_counter().inc();
            stats.sim_events = sim::Simulator::thread_events_processed() - events_before;
            const pcu::TickCounts ticks = pcu::PcuController::thread_tick_counts();
            stats.pcu_evaluated = ticks.evaluated - ticks_before.evaluated;
            stats.pcu_gathered = ticks.gathered - ticks_before.gathered;
            stats.pcu_searched = ticks.searched - ticks_before.searched;
            stats.events_per_sec =
                body_secs > 0.0 ? static_cast<double>(stats.sim_events) / body_secs : 0.0;
            if (cache) cache->store(fj.job->spec, payload);
            payloads[experiment_of[i]][fj.payload_slot] = std::move(payload);
        });
    }

    SchedulerConfig sched_cfg;
    sched_cfg.threads = options.jobs;
    sched_cfg.max_attempts = options.max_attempts;
    sched_cfg.retry_deadline = options.retry_deadline;
    Scheduler scheduler{sched_cfg};
    scheduler.set_listener([&](const JobOutcome& outcome) {
        auto& stats = report.jobs[outcome.index];
        if (stats.cache_hit) return;  // resolved before the job body ran
        stats.ok = outcome.ok;
        stats.attempts = outcome.attempts;
        stats.wall_ms = outcome.wall_ms;
        stats.error = outcome.error;
        resolved.fetch_add(1, std::memory_order_relaxed);
        emit(outcome.ok ? ProgressEvent::Kind::Finished : ProgressEvent::Kind::Failed,
             flat[outcome.index], outcome.attempts, outcome.wall_ms,
             stats.events_per_sec);
    });

    const auto outcomes = scheduler.run(std::move(tasks), costs);

    // Post-run bookkeeping, all single-threaded and in survey order.
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const auto& stats = report.jobs[i];
        if (stats.cache_hit) {
            ++report.cache_hits;
            continue;
        }
        ++report.cache_misses;
        const unsigned extra_attempts = stats.attempts > 0 ? stats.attempts - 1 : 0;
        report.retries += extra_attempts;
        if (!stats.ok) ++report.failures;
        if (extra_attempts > 0 || !stats.ok) {
            analysis::Diagnostic d;
            d.invariant = analysis::Invariant::EngineJob;
            d.severity = stats.ok ? analysis::Severity::Warning
                                  : analysis::Severity::Violation;
            d.subject = stats.experiment + "/" + stats.point;
            d.message = stats.ok
                            ? "succeeded after retry: " + stats.error
                            : "failed permanently: " + stats.error;
            d.value = stats.attempts;
            d.bound = 1.0;
            report.diagnostics.report(std::move(d));
        }
    }

    // Assemble artifacts per experiment, skipping any with failed jobs.
    for (std::size_t e = 0; e < experiments.size(); ++e) {
        bool all_ok = true;
        for (std::size_t i = 0; i < flat.size(); ++i) {
            if (experiment_of[i] == e && !report.jobs[i].ok) all_ok = false;
        }
        if (!all_ok || !experiments[e].assemble) continue;
        auto artifacts = experiments[e].assemble(payloads[e]);
        for (auto& a : artifacts) report.artifacts.push_back(std::move(a));
    }

    if (cache) {
        report.cache_enabled = true;
        report.disk_cache = cache->counters();
    }

    report.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - run_start)
                         .count();
    return report;
}

JobResult run_job(const Job& job, const ResultCache* cache, const CancelToken* token) {
    if (token) token->check();
    if (cache) {
        if (auto hit = cache->load(job.spec)) {
            job_hits_counter().inc();
            return JobResult{std::move(*hit), JobSource::DiskCache};
        }
    }
    if (token) token->check();
    JobResult result;
    {
        obs::trace::Span span{"engine.job", "engine"};
        span.set_label(job.spec.label());
        result.payload = job.run(job.spec);
    }
    job_computed_counter().inc();
    result.source = JobSource::Computed;
    if (cache) cache->store(job.spec, result.payload);
    return result;
}

void write_artifacts(const RunReport& report, const std::filesystem::path& dir,
                     bool renders) {
    std::filesystem::create_directories(dir);
    for (const auto& artifact : report.artifacts) {
        if (artifact.kind == ArtifactKind::Render && !renders) continue;
        const std::filesystem::path path = dir / artifact.filename;
        std::ofstream out{path, std::ios::binary | std::ios::trunc};
        out.write(artifact.contents.data(),
                  static_cast<std::streamsize>(artifact.contents.size()));
        if (!out) throw std::runtime_error{"cannot write artifact " + path.string()};
    }
}

}  // namespace hsw::engine
