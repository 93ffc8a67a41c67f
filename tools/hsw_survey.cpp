// hsw_survey: one-shot runner for the whole Fig. 2-8 / Table III-V survey.
//
//   hsw_survey --jobs 8 --out csv/
//
// fans the survey's independent sweep points across 8 worker threads,
// consults the content-addressed result cache (so an unchanged rerun is a
// near-no-op) and writes one CSV per figure/table into csv/. Output bytes
// are identical for every --jobs value.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>

#include "engine/survey_experiments.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/registry.hpp"
#include "util/parse.hpp"

using namespace hsw;

namespace {

int usage(const char* argv0, int code) {
    std::FILE* out = code == 0 ? stdout : stderr;
    std::fprintf(
        out,
        "usage: %s [options]\n"
        "\n"
        "Runs every survey experiment (Figs. 2-8, Tables III-V) through the\n"
        "parallel experiment engine and writes one CSV per figure/table.\n"
        "\n"
        "  --jobs N          worker threads (default: hardware concurrency)\n"
        "  --out DIR         artifact directory (default: .)\n"
        "  --cache DIR       result-cache directory (default: .hsw-cache)\n"
        "  --no-cache        always recompute, never read or write the cache\n"
        "  --only NAMES      comma-separated experiment subset (e.g. fig3,table5)\n"
        "  --generation G    keep only experiments that build nodes of the\n"
        "                    named generation (e.g. skylake-sp, haswell-ep)\n"
        "  --seed S          base seed, decimal or 0x-hex (default: 0xC0FFEE)\n"
        "  --audit MODE      off | warn | strict invariant audit (default: off)\n"
        "  --renders         also write the rendered .txt tables\n"
        "  --quick           heavily reduced sampling (smoke tests)\n"
        "  --max-attempts N  attempts per job before permanent failure (default: 2)\n"
        "  --trace FILE      capture span tracing for the run; write Chrome\n"
        "                    trace-event JSON to FILE (open in Perfetto)\n"
        "  --quiet           suppress per-job progress lines\n"
        "  --list            list experiments and their job counts, then exit\n"
        "  --list-generations  list the platform backends --generation accepts\n",
        argv0);
    return code;
}

bool parse_unsigned(const char* text, unsigned& out) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0' || v == 0 || v > 1u << 20) return false;
    out = static_cast<unsigned>(v);
    return true;
}

std::vector<std::string> split_commas(const std::string& list) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::size_t end = comma == std::string::npos ? list.size() : comma;
        if (end > start) out.push_back(list.substr(start, end - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    engine::SurveyTuning tuning;
    engine::RunOptions options;
    options.jobs = std::max(1u, std::thread::hardware_concurrency());
    options.cache_dir = ".hsw-cache";
    std::string out_dir = ".";
    std::string trace_file;
    std::vector<std::string> only;
    std::string generation;
    bool renders = false;
    bool quick = false;
    bool quiet = false;
    bool list = false;
    bool list_generations = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
        if (arg == "--list") {
            list = true;
        } else if (arg == "--list-generations") {
            list_generations = true;
        } else if (arg == "--generation") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            generation = v;
        } else if (arg == "--no-cache") {
            options.cache_dir.reset();
        } else if (arg == "--renders") {
            renders = true;
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--jobs") {
            const char* v = value();
            if (!v || !parse_unsigned(v, options.jobs)) return usage(argv[0], 2);
        } else if (arg == "--max-attempts") {
            const char* v = value();
            if (!v || !parse_unsigned(v, options.max_attempts)) return usage(argv[0], 2);
        } else if (arg == "--out") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            out_dir = v;
        } else if (arg == "--cache") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            options.cache_dir = v;
        } else if (arg == "--trace") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            trace_file = v;
        } else if (arg == "--only") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            for (auto& name : split_commas(v)) only.push_back(std::move(name));
        } else if (arg == "--seed") {
            const char* v = value();
            if (!v || !util::parse_u64(v, tuning.seed)) return usage(argv[0], 2);
        } else if (arg == "--audit") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            if (std::strcmp(v, "off") == 0) {
                tuning.audit = analysis::AuditMode::Off;
            } else if (std::strcmp(v, "warn") == 0) {
                tuning.audit = analysis::AuditMode::Warn;
            } else if (std::strcmp(v, "strict") == 0) {
                tuning.audit = analysis::AuditMode::Strict;
            } else {
                return usage(argv[0], 2);
            }
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg.c_str());
            return usage(argv[0], 2);
        }
    }

    if (quick) {
        const std::uint64_t seed = tuning.seed;
        const analysis::AuditMode audit = tuning.audit;
        tuning = engine::SurveyTuning::quick();
        tuning.seed = seed;
        tuning.audit = audit;
    }

    std::vector<engine::Experiment> experiments = engine::survey_experiments(tuning);

    if (list_generations) {
        for (const auto* b : platform::all_backends()) {
            std::string names;
            for (const auto& e : experiments) {
                if (std::find(e.generations.begin(), e.generations.end(),
                              b->generation()) == e.generations.end()) {
                    continue;
                }
                if (!names.empty()) names += ' ';
                names += e.name;
            }
            std::printf("%-16s %-16s %s\n", platform::name_slug(b->name()).c_str(),
                        b->hwp_capable() ? "(hwp, per-core)" : "", names.c_str());
        }
        return 0;
    }

    if (list) {
        for (const auto& e : experiments) {
            std::printf("%-8s %2zu job%s  %s\n", e.name.c_str(), e.jobs.size(),
                        e.jobs.size() == 1 ? " " : "s", e.description.c_str());
        }
        return 0;
    }

    if (!only.empty()) {
        std::vector<engine::Experiment> subset;
        for (const auto& name : only) {
            const engine::Experiment* e = engine::find_experiment(experiments, name);
            if (!e) {
                std::fprintf(stderr,
                             "%s: no experiment named '%s'; registered experiments:\n",
                             argv[0], name.c_str());
                for (const auto& known : experiments) {
                    std::fprintf(stderr, "  %-8s %s\n", known.name.c_str(),
                                 known.description.c_str());
                }
                return 2;
            }
            subset.push_back(*e);
        }
        experiments = std::move(subset);
    }

    if (!generation.empty()) {
        const platform::PlatformBackend* backend = platform::backend_by_name(generation);
        if (backend == nullptr) {
            std::fprintf(stderr,
                         "%s: no generation named '%s'; registered generations:\n",
                         argv[0], generation.c_str());
            for (const auto* b : platform::all_backends()) {
                std::fprintf(stderr, "  %s\n", platform::name_slug(b->name()).c_str());
            }
            return 2;
        }
        std::vector<engine::Experiment> subset;
        for (auto& e : experiments) {
            if (std::find(e.generations.begin(), e.generations.end(),
                          backend->generation()) != e.generations.end()) {
                subset.push_back(std::move(e));
            }
        }
        if (subset.empty()) {
            std::fprintf(stderr, "%s: no selected experiment targets generation '%s'\n",
                         argv[0], generation.c_str());
            return 2;
        }
        experiments = std::move(subset);
    }

    if (!quiet) {
        options.on_progress = [](const engine::ProgressEvent& ev) {
            const char* what = ev.kind == engine::ProgressEvent::Kind::CacheHit ? "cached"
                               : ev.kind == engine::ProgressEvent::Kind::Failed ? "FAILED"
                                                                                : "done";
            if (ev.events_per_sec > 0.0) {
                std::fprintf(stderr, "[%3zu/%3zu] %-7s %s (%.0f ms, %.2fM events/sec)\n",
                             ev.done, ev.total, what, ev.label.c_str(), ev.wall_ms,
                             ev.events_per_sec / 1e6);
            } else {
                std::fprintf(stderr, "[%3zu/%3zu] %-7s %s (%.0f ms)\n", ev.done, ev.total,
                             what, ev.label.c_str(), ev.wall_ms);
            }
        };
    }

    if (!trace_file.empty()) {
        // Telemetry observes the run without touching its output bytes:
        // artifacts are identical with or without --trace.
        obs::set_metrics_enabled(true);
        obs::trace::enable();
    }

    const engine::RunReport report = engine::run_experiments(experiments, options);
    engine::write_artifacts(report, out_dir, renders);

    if (!trace_file.empty()) {
        obs::trace::disable();
        if (!obs::trace::write_chrome_json(trace_file)) {
            std::fprintf(stderr, "hsw_survey: cannot write trace %s\n",
                         trace_file.c_str());
            return 1;
        }
        std::fprintf(stderr, "hsw_survey: wrote %zu trace events to %s\n",
                     obs::trace::recorded_events(), trace_file.c_str());
    }

    std::fputs(report.summary().c_str(), stderr);
    if (!report.ok()) {
        std::fprintf(stderr, "hsw_survey: %zu job(s) failed permanently\n",
                     report.failures);
        return 1;
    }
    return 0;
}
