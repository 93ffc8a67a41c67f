// The experiment-execution engine.
//
// An Experiment is an ordered list of independent Jobs (one per sweep
// point) plus an assemble step that folds the jobs' payload blobs -- in
// point order, never in completion order -- into named artifacts (CSV
// files, rendered tables). The engine fans all jobs of all requested
// experiments across a longest-first Scheduler, consults the
// content-addressed ResultCache before computing anything, and reports
// retries/permanent failures as Invariant::EngineJob diagnostics through
// the standard DiagnosticSink.
//
// Determinism contract: a job's only seed input is spec.job_seed(), derived
// from the spec's content hash -- so outputs are byte-identical across
// thread counts, schedules, and cache hit/miss patterns.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "arch/generation.hpp"
#include "engine/cancel.hpp"
#include "engine/result_cache.hpp"
#include "engine/scheduler.hpp"
#include "engine/spec.hpp"

namespace hsw::engine {

struct Job {
    ExperimentSpec spec;
    /// Computes the job's payload blob (see blob.hpp). Must derive all
    /// randomness from spec.job_seed().
    std::function<std::string(const ExperimentSpec&)> run;
    /// Scheduling hint: the simulated seconds the body runs, scaled by the
    /// tuning field that sets its length. The costliest jobs start first;
    /// 0 means no hint, and such jobs start last. Not part of the spec, so
    /// it never moves a cache key or a byte.
    double cost = 0.0;
};

enum class ArtifactKind { Csv, Render };

struct Artifact {
    std::string filename;  // e.g. "fig7_relative_bandwidth.csv"
    ArtifactKind kind = ArtifactKind::Csv;
    std::string contents;
};

struct Experiment {
    std::string name;         // "fig2a" .. "skx_avx512"
    std::string description;  // one line for --list
    /// Processor generations the experiment builds nodes for (the
    /// --generation filter key). Most of the survey is Haswell-EP only.
    std::vector<arch::Generation> generations{arch::Generation::HaswellEP};
    std::vector<Job> jobs;
    /// Folds job payloads (ordered like `jobs`) into artifacts.
    std::function<std::vector<Artifact>(const std::vector<std::string>&)> assemble;
};

struct JobStats {
    std::string experiment;
    std::string point;
    std::string spec_hash;  // hex, abbreviated to 12 chars
    bool cache_hit = false;
    bool ok = false;
    unsigned attempts = 0;
    double wall_ms = 0.0;
    /// Simulator events dispatched on the worker thread while this job's
    /// body ran (last attempt; 0 for cache hits and simulation-free jobs).
    std::uint64_t sim_events = 0;
    /// sim_events over the job-body wall time -- the survey's per-job
    /// measure of event-engine throughput.
    double events_per_sec = 0.0;
    std::string error;
};

struct RunReport {
    std::vector<Artifact> artifacts;
    std::vector<JobStats> jobs;          // survey order (experiment, then point)
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    /// The ResultCache's own probe/store tallies for this run. Unlike
    /// cache_hits/cache_misses (one per job), these count every disk probe
    /// -- a corrupt entry shows up here as a miss plus a re-store.
    ResultCache::Counters disk_cache;
    bool cache_enabled = false;
    std::size_t failures = 0;            // permanently failed jobs
    std::size_t retries = 0;
    double wall_ms = 0.0;                // whole run, scheduling included
    analysis::DiagnosticSink diagnostics{64};  // EngineJob records

    [[nodiscard]] bool ok() const { return failures == 0; }
    /// Multi-line run summary (job counts, cache hits, slowest points).
    [[nodiscard]] std::string summary() const;
};

struct ProgressEvent {
    enum class Kind { CacheHit, Finished, Failed } kind = Kind::Finished;
    std::string label;    // "experiment/point"
    unsigned attempts = 0;
    double wall_ms = 0.0;
    double events_per_sec = 0.0;  // 0 for cache hits
    std::size_t done = 0;    // jobs finished so far (hits included)
    std::size_t total = 0;
};

struct RunOptions {
    unsigned jobs = 1;
    /// nullopt disables caching entirely.
    std::optional<std::filesystem::path> cache_dir;
    unsigned max_attempts = 2;
    std::chrono::milliseconds retry_deadline{5 * 60 * 1000};
    /// Called after each job resolves (cache hit, success or permanent
    /// failure); serialized, may run on any worker thread.
    std::function<void(const ProgressEvent&)> on_progress;
};

/// Runs every job of every experiment, assembles artifacts for experiments
/// whose jobs all succeeded, and never throws on job failure -- check
/// RunReport::ok().
[[nodiscard]] RunReport run_experiments(const std::vector<Experiment>& experiments,
                                        const RunOptions& options = {});

/// Writes the report's artifacts under `dir` (created if needed). Renders
/// (.txt artifacts) are skipped unless `renders` is set; CSVs are always
/// written. Throws std::runtime_error when a file cannot be written.
void write_artifacts(const RunReport& report, const std::filesystem::path& dir,
                     bool renders = false);

/// Where a single job's payload came from.
enum class JobSource { DiskCache, Computed };

struct JobResult {
    std::string payload;
    JobSource source = JobSource::Computed;
};

/// Runs one job through the standard cache discipline -- probe `cache`,
/// else compute and store -- honoring `token` at each checkpoint (throws
/// CancelledError rather than starting doomed work). Both pointers may be
/// null: no cache means always compute, no token means never cancel. This
/// is the long-lived-service entry point; run_experiments() remains the
/// batch path.
[[nodiscard]] JobResult run_job(const Job& job, const ResultCache* cache = nullptr,
                                const CancelToken* token = nullptr);

}  // namespace hsw::engine
