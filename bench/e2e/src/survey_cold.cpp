// survey-cold: the paper-reproduction path. run_experiments over the full
// survey with no cache at jobs = min(4, nproc); it loads the simulator, the
// node model and the engine scheduler and skips every service, protocol
// and router layer. One operation is one whole survey pass.
#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "engine/engine.hpp"
#include "engine/survey_experiments.hpp"
#include "service/service.hpp"

namespace e2e {

namespace {

namespace engine = hsw::engine;

/// Exact simulator event count of the full survey at the default seed.
constexpr std::uint64_t kGoldenEvents = 13834727;
constexpr std::size_t kGoldenCsvs = 15;

struct Pass {
    PassStats stats;
    std::map<std::string, std::uint64_t> digests;  // artifact -> FNV-1a
    double encode_us = 0.0, wait_us = 0.0, parse_us = 0.0, total_us = 0.0;
};

std::string read_file(const std::filesystem::path& path) {
    std::ifstream in{path, std::ios::binary};
    if (!in) return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class SurveyCold {
public:
    explicit SurveyCold(const Options& options)
        : options_{options},
          workers_{options.generator_threads()},
          golden_run_{!options.smoke && options.seed == engine::SurveyTuning{}.seed},
          log_{20000} {
        tuning_ = options.smoke ? engine::SurveyTuning::quick() : engine::SurveyTuning{};
        tuning_.seed = options.seed;
        report_.workload = "survey-cold";
    }

    Report run() {
        report_.note("jobs", static_cast<double>(workers_));
        report_.note("tuning", options_.smoke ? "quick" : "full");
        report_.note("golden_check", golden_run_ ? "yes" : "no (seed is not the goldens')");
        if (golden_run_) load_goldens();

        std::vector<double> setups;
        for (int i = 0; i < options_.setup_repeats(); ++i) setups.push_back(setup());

        // Untraced: at least min_passes, more until --seconds have passed.
        // Traced: one untraced pass, then the traced one.
        const auto t0 = Clock::now();
        std::vector<Pass> passes;
        const std::size_t min_passes = options_.smoke || options_.traced ? 2 : 3;
        for (;;) {
            const bool traced = options_.traced && passes.size() + 1 == min_passes;
            const std::uint64_t failures_before = report_.check_failures();
            passes.push_back(pass(traced, passes.size()));
            if (report_.check_failures() > failures_before) ++report_.failed;
            const bool enough = passes.size() >= min_passes;
            if (enough && (options_.traced || seconds_between(t0, Clock::now()) >= options_.seconds)) {
                break;
            }
        }
        report_.note("passes", static_cast<double>(passes.size()));
        report_.note("measure_s", seconds_between(t0, Clock::now()));

        std::vector<double> walls, cpus;
        std::vector<PassStats> stats;
        for (const Pass& p : passes) {
            if (options_.traced && &p == &passes.back()) continue;  // traced pass
            walls.push_back(p.stats.wall_s);
            cpus.push_back(p.stats.cpu_s);
        }
        for (const Pass& p : passes) stats.push_back(p.stats);

        const double wall = median(walls);
        const std::uint64_t n = walls.size();
        report_.add_e2e("setup_s", median(setups), "s", setups.size());
        report_.add_e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
        report_.add_e2e("throughput_rps", 1.0 / wall, "1/s", n);
        report_.add_e2e("latency_p50_us", wall * 1e6, "us", n);
        report_.add_e2e("latency_p99_us", *std::max_element(walls.begin(), walls.end()) * 1e6,
                        "us", n);
        report_.add_e2e("cpu_us_per_op", median(cpus) * 1e6, "us", n);
        report_.add_extra("wall_s", wall, "s", n);
        report_.add_extra("cpu_s", median(cpus), "s", n);
        add_engine_layers(stats, report_);
        report_.attempted = passes.size();

        if (options_.traced) traced_layers(passes, walls);
        ledger(stats);
        return std::move(report_);
    }

private:
    /// Builds the full experiment list and warms up with one quick survey.
    /// The warm-up runs on one worker: a parallel pass waits on whichever
    /// core the host slows, so it repeats worse.
    double setup() {
        const auto t0 = Clock::now();
        const auto experiments = engine::survey_experiments(tuning_);
        engine::SurveyTuning quick = engine::SurveyTuning::quick();
        quick.seed = options_.seed;
        engine::RunOptions run_options;
        run_options.jobs = 1;
        const auto warm = engine::run_experiments(engine::survey_experiments(quick), run_options);
        if (!warm.ok() || experiments.empty()) report_.fail("warm-up survey failed");
        return seconds_between(t0, Clock::now());
    }

    Pass pass(bool traced, std::size_t index) {
        Pass p;
        const std::uint64_t root = 1 + index * 1000;
        std::map<std::thread::id, std::uint32_t> tids;
        std::uint64_t next_span = root + 4;

        engine::RunOptions run_options;
        run_options.jobs = workers_;
        if (traced) {
            // Serialized by the engine; runs on the worker that finished.
            run_options.on_progress = [&](const engine::ProgressEvent& e) {
                const auto now = Clock::now();
                auto [it, fresh] = tids.try_emplace(std::this_thread::get_id(),
                                                    static_cast<std::uint32_t>(tids.size() + 2));
                (void)fresh;
                log_.add(TraceLog::Span{e.label, next_span++, root + 2,
                                        TraceLog::epoch_us(now) - e.wall_ms * 1e3,
                                        e.wall_ms * 1e3, it->second});
            };
        }

        const double cpu0 = process_cpu_s();
        const auto t0 = Clock::now();
        const auto experiments = engine::survey_experiments(tuning_);
        const auto t1 = Clock::now();
        const engine::RunReport run = engine::run_experiments(experiments, run_options);
        const auto t2 = Clock::now();
        check(run, p);
        const auto t3 = Clock::now();
        const double wall = seconds_between(t0, t3);
        p.stats = pass_stats(run, wall, process_cpu_s() - cpu0, workers_);
        p.encode_us = us_between(t0, t1);
        p.wait_us = us_between(t1, t2);
        p.parse_us = us_between(t2, t3);
        p.total_us = us_between(t0, t3);
        if (traced) {
            const auto span = [&](const char* name, std::uint64_t id, std::uint64_t parent,
                                  Clock::time_point a, Clock::time_point b) {
                log_.add(TraceLog::Span{name, id, parent, TraceLog::epoch_us(a),
                                        us_between(a, b), 1});
            };
            span("pass", root, 0, t0, t3);
            span("client.encode", root + 1, root, t0, t1);
            span("client.wait", root + 2, root, t1, t2);
            span("client.parse", root + 3, root, t2, t3);
        }
        return p;
    }

    /// Identity checks: every pass yields the same artifacts and events;
    /// at the goldens' seed they are the committed CSVs, byte for byte.
    void check(const engine::RunReport& run, Pass& p) {
        if (!run.ok()) report_.fail("survey pass had " + std::to_string(run.failures) +
                                    " failed jobs");
        std::uint64_t events = 0;
        for (const auto& job : run.jobs) events += job.sim_events;
        std::size_t goldens_seen = 0;
        for (const auto& artifact : run.artifacts) {
            p.digests[artifact.filename] = fnv1a(artifact.contents);
            if (!golden_run_ || artifact.kind != engine::ArtifactKind::Csv) continue;
            const auto it = goldens_.find(artifact.filename);
            if (it == goldens_.end()) continue;
            ++goldens_seen;
            if (it->second != artifact.contents) {
                report_.fail(artifact.filename + " differs from the committed golden");
            }
        }
        if (golden_run_) {
            if (goldens_seen != kGoldenCsvs) {
                report_.fail("matched " + std::to_string(goldens_seen) + " of " +
                             std::to_string(kGoldenCsvs) + " golden CSVs");
            }
            if (events != kGoldenEvents) {
                report_.fail("survey dispatched " + std::to_string(events) +
                             " sim events, expected " + std::to_string(kGoldenEvents));
            }
        }
        if (first_digests_.empty()) {
            first_digests_ = p.digests;
            first_events_ = events;
            // The self-test corrupts the reference this pass set; the next
            // pass must then fail the identity check.
            if (options_.self_test && !golden_run_ && !first_digests_.empty()) {
                first_digests_.begin()->second ^= 1;
            }
        } else {
            if (p.digests != first_digests_) report_.fail("artifact digests differ across passes");
            if (events != first_events_) report_.fail("sim event count differs across passes");
        }
    }

    void load_goldens() {
        for (const auto& entry : std::filesystem::directory_iterator{options_.repo_root}) {
            if (entry.path().extension() != ".csv") continue;
            goldens_[entry.path().filename().string()] = read_file(entry.path());
        }
        if (options_.self_test && !goldens_.empty()) goldens_.begin()->second[0] ^= 1;
    }

    void traced_layers(const std::vector<Pass>& passes, const std::vector<double>& walls) {
        const Pass& traced = passes.back();
        StageTimes stages;
        stages.add(traced.encode_us, traced.wait_us, traced.parse_us, traced.total_us);
        (void)add_client_stages(stages, "pass", report_);
        report_.add_layer("latency_p999_us", *std::max_element(walls.begin(), walls.end()) * 1e6,
                          "us", walls.size());
        report_.add_layer("trace.overhead_frac", traced.stats.wall_s / median(walls) - 1.0,
                          "ratio", 1);
        // No service or router runs in this workload: their counts are 0.
        add_service_counts(hsw::service::ServiceStats{}, hsw::service::ServiceStats{}, report_);

        std::vector<Spec> specs;
        for (const auto& experiment : engine::survey_experiments(engine::SurveyTuning::quick())) {
            specs.push_back(Spec{experiment.name, options_.seed});
        }
        (void)run_isolation(options_, specs, /*router_counts=*/true, report_);

        const std::string path = options_.trace_path;
        if (!path.empty() && !log_.write_chrome(path)) report_.fail("cannot write " + path);
        report_.note("trace_spans", static_cast<double>(log_.kept()));
    }

    void ledger(const std::vector<PassStats>& stats) {
        std::vector<double> wall, cpu, body, critical;
        std::map<std::string, std::vector<double>> per_experiment;
        for (const PassStats& p : stats) {
            wall.push_back(p.wall_s);
            cpu.push_back(p.cpu_s);
            body.push_back(p.body_s);
            critical.push_back(p.critical_ms / 1e3);
            for (const auto& [name, ms] : p.experiment_ms) per_experiment[name].push_back(ms);
        }
        char line[160];
        auto& out = report_.ledger;
        std::snprintf(line, sizeof line,
                      "survey pass, median of %zu passes at jobs %u (s):", stats.size(), workers_);
        out.emplace_back(line);
        for (const auto& [name, ms] : per_experiment) {
            std::snprintf(line, sizeof line, "  survey.%-22s %10.3f  (sum of job bodies)",
                          name.c_str(), median(ms) / 1e3);
            out.emplace_back(line);
        }
        const double w = median(wall), c = median(cpu), b = median(body);
        std::snprintf(line, sizeof line, "  job bodies                    %10.3f", b);
        out.emplace_back(line);
        std::snprintf(line, sizeof line, "  residual: cpu outside jobs    %10.3f  (process cpu %.3f)",
                      c - b, c);
        out.emplace_back(line);
        std::snprintf(line, sizeof line,
                      "  wall %.3f = critical job %.3f + residual %.3f; workers idle %.1f%%", w,
                      median(critical), w - median(critical), 100.0 * (1.0 - b / (workers_ * w)));
        out.emplace_back(line);
    }

    const Options& options_;
    unsigned workers_;
    bool golden_run_;
    engine::SurveyTuning tuning_;
    Report report_;
    TraceLog log_;
    std::map<std::string, std::string> goldens_;
    std::map<std::string, std::uint64_t> first_digests_;
    std::uint64_t first_events_ = 0;
};

}  // namespace

Report run_survey_cold(const Options& options) { return SurveyCold{options}.run(); }

}  // namespace e2e
