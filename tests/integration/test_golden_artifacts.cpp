// Byte-identity against the committed goldens, through the engine, at
// several thread counts. The cheap full-tuning experiments (fig3-fig7 plus
// the cross-generation xgen_c6/skx_* sweeps) regenerate in seconds; their
// CSV artifacts must equal the checked-in files byte for byte at jobs=1, 4
// and 8. Full-tuning Table IV and two Table V cells get their own case: they
// are most of a survey's CPU, and they run the PCU search that the
// controller carries from tick to tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/blob.hpp"
#include "engine/survey_experiments.hpp"
#include "obs/accesslog.hpp"
#include "obs/ctx.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#ifndef HSW_REPO_ROOT
#error "HSW_REPO_ROOT must point at the source tree (set in tests/CMakeLists.txt)"
#endif

namespace hsw::engine {
namespace {

const std::vector<std::string> kCheapExperiments{"fig3",    "fig4",    "fig5",
                                                 "fig6",    "fig7",    "xgen_c6",
                                                 "skx_hwp", "skx_avx512"};

std::string slurp(const std::filesystem::path& path) {
    std::ifstream in{path, std::ios::binary};
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

RunReport regenerate(unsigned jobs) {
    const auto all = survey_experiments(SurveyTuning{});  // full tuning: golden inputs
    std::vector<Experiment> subset;
    for (const std::string& name : kCheapExperiments) {
        const Experiment* e = find_experiment(all, name);
        if (e != nullptr) subset.push_back(*e);
    }
    EXPECT_EQ(subset.size(), kCheapExperiments.size());

    RunOptions options;
    options.jobs = jobs;
    return run_experiments(subset, options);
}

void expect_artifacts_match_goldens(const RunReport& report) {
    ASSERT_TRUE(report.ok()) << report.summary();
    const std::filesystem::path root{HSW_REPO_ROOT};
    std::size_t csvs = 0;
    for (const Artifact& artifact : report.artifacts) {
        if (artifact.kind != ArtifactKind::Csv) continue;
        ++csvs;
        const std::string golden = slurp(root / artifact.filename);
        EXPECT_EQ(artifact.contents, golden)
            << artifact.filename << " drifted from the committed golden";
    }
    EXPECT_GE(csvs, kCheapExperiments.size());
}

TEST(GoldenArtifacts, SerialRunMatchesCommittedCsvsByteForByte) {
    expect_artifacts_match_goldens(regenerate(1));
}

TEST(GoldenArtifacts, ParallelRunMatchesCommittedCsvsByteForByte) {
    expect_artifacts_match_goldens(regenerate(8));
}

// Telemetry must observe the run without moving a single output byte: the
// acceptance bar for the obs layer is that goldens stay byte-identical with
// metrics, span tracing, a sampled distributed trace context, and the
// access log all live during artifact generation.
TEST(GoldenArtifacts, TracingEnabledRunMatchesCommittedCsvsByteForByte) {
    obs::set_metrics_enabled(true);
    obs::trace::enable();
    obs::accesslog::set_policy(1.0, 0);
    obs::accesslog::set_enabled(true);
    {
        // Every engine span joins one sampled request tree, exactly as if
        // the run arrived as a traced query.
        obs::trace::ContextScope scope{obs::trace::make_root(true)};
        expect_artifacts_match_goldens(regenerate(4));
    }
    obs::trace::disable();
    obs::accesslog::set_enabled(false);
    obs::set_metrics_enabled(false);
    EXPECT_GT(obs::trace::recorded_events(), 0u) << "tracing was on but recorded nothing";
    obs::trace::clear();
}

// Two Table V cells, by job point and by the CSV row prefix they produce:
// FIRESTARTER.turbo.perf is TDP-throttled (the core dither), and mprime's
// square-wave activity changes core keys, so the carry misses and refills.
TEST(GoldenArtifacts, TablesFourAndFiveMatchCommittedCsvsByteForByte) {
    const std::pair<std::string, std::string> cells[] = {
        {"FIRESTARTER.turbo.perf", "FIRESTARTER,turbo,perf,"},
        {"mprime.turbo.bal", "mprime,turbo,bal,"},
    };
    const auto all = survey_experiments(SurveyTuning{});
    const Experiment* table4 = find_experiment(all, "table4");
    const Experiment* table5 = find_experiment(all, "table5");
    ASSERT_NE(table4, nullptr);
    ASSERT_NE(table5, nullptr);
    Experiment two_cells = *table5;
    std::erase_if(two_cells.jobs, [&](const Job& job) {
        return std::none_of(std::begin(cells), std::end(cells),
                            [&](const auto& cell) { return cell.first == job.spec.point; });
    });
    ASSERT_EQ(two_cells.jobs.size(), std::size(cells));
    // Table V's own assembly renders all 18 cells; two cells only need
    // their CSV rows under the header.
    two_cells.assemble = [](const std::vector<std::string>& payloads) {
        std::string csv = "workload,setting,epb,ac_watts,core_ghz\n";
        for (const auto& payload : payloads) csv += section(payload, "csv").value_or("");
        return std::vector<Artifact>{
            Artifact{"table5_maxpower.csv", ArtifactKind::Csv, std::move(csv)}};
    };

    RunOptions options;
    options.jobs = 3;
    const RunReport report = run_experiments({*table4, two_cells}, options);
    ASSERT_TRUE(report.ok()) << report.summary();

    const std::filesystem::path root{HSW_REPO_ROOT};
    // The cells' golden rows, in registration order under the CSV header.
    std::istringstream golden5{slurp(root / "table5_maxpower.csv")};
    std::string expected5;
    for (std::string line; std::getline(golden5, line);) {
        const bool wanted =
            expected5.empty() ||
            std::any_of(std::begin(cells), std::end(cells),
                        [&](const auto& cell) { return line.starts_with(cell.second); });
        if (wanted) expected5 += line + '\n';
    }

    std::size_t csvs = 0;
    for (const Artifact& artifact : report.artifacts) {
        if (artifact.kind != ArtifactKind::Csv) continue;
        ++csvs;
        if (artifact.filename == "table5_maxpower.csv") {
            EXPECT_EQ(artifact.contents, expected5) << "Table V cells drifted from the golden";
        } else {
            EXPECT_EQ(artifact.contents, slurp(root / artifact.filename))
                << artifact.filename << " drifted from the committed golden";
        }
    }
    EXPECT_EQ(csvs, 2u);
}

// Each computed job also carries its worker's PCU tick counts, and the
// summary prints their sums below the event count.
TEST(GoldenArtifacts, JobsReportSimEventsForComputedWork) {
    const RunReport report = regenerate(4);
    ASSERT_TRUE(report.ok());
    std::uint64_t total_events = 0;
    std::uint64_t evaluated = 0;
    std::uint64_t gathered = 0;
    std::uint64_t searched = 0;
    for (const JobStats& j : report.jobs) {
        EXPECT_FALSE(j.cache_hit);  // no cache dir configured
        total_events += j.sim_events;
        if (j.sim_events > 0) {
            EXPECT_GT(j.events_per_sec, 0.0) << j.point;
        }
        EXPECT_LE(j.pcu_gathered, j.pcu_evaluated) << j.point;
        EXPECT_LE(j.pcu_searched, j.pcu_gathered) << j.point;
        evaluated += j.pcu_evaluated;
        gathered += j.pcu_gathered;
        searched += j.pcu_searched;
    }
    EXPECT_GT(total_events, 0u);
    EXPECT_GT(evaluated, gathered);  // some ticks took the steady path
    EXPECT_GT(searched, 0u);
    const std::string line = "pcu-ticks: " + std::to_string(evaluated) + " evaluated, " +
                             std::to_string(gathered) + " gathered, " +
                             std::to_string(searched) + " searched\n";
    EXPECT_NE(report.summary().find(line), std::string::npos) << report.summary();
}

}  // namespace
}  // namespace hsw::engine
