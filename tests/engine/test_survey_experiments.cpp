// A survey job's seed and audit mode must reach it through its spec alone.
// The query service builds one registry per tuning and sets the seed and
// audit on each job it resolves, so a registry built with the default seed,
// re-seeded job by job, has to equal the registry built with that seed and
// audit: the same canonical spec text (so the same cache key and job seed)
// and the same scheduling cost.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "engine/survey_experiments.hpp"

namespace hsw::engine {
namespace {

TEST(SurveyExperiments, SeedAndAuditReachJobsOnlyThroughTheSpec) {
    const std::uint64_t seeds[] = {0, 7, 0xC0FFEE, std::numeric_limits<std::uint64_t>::max()};
    const analysis::AuditMode audits[] = {analysis::AuditMode::Off, analysis::AuditMode::Warn,
                                          analysis::AuditMode::Strict};
    std::size_t compared = 0;
    for (const bool quick : {false, true}) {
        const SurveyTuning base = quick ? SurveyTuning::quick() : SurveyTuning{};
        const std::vector<Experiment> shared = survey_experiments(base);
        for (const std::uint64_t seed : seeds) {
            for (const analysis::AuditMode audit : audits) {
                SurveyTuning tuning = base;
                tuning.seed = seed;
                tuning.audit = audit;
                const std::vector<Experiment> seeded = survey_experiments(tuning);
                ASSERT_EQ(seeded.size(), shared.size());
                for (std::size_t e = 0; e < shared.size(); ++e) {
                    ASSERT_EQ(seeded[e].name, shared[e].name);
                    ASSERT_EQ(seeded[e].jobs.size(), shared[e].jobs.size()) << shared[e].name;
                    for (std::size_t j = 0; j < shared[e].jobs.size(); ++j) {
                        const Job& want = seeded[e].jobs[j];
                        ExperimentSpec spec = shared[e].jobs[j].spec;
                        spec.base_seed = seed;
                        spec.audit = audit;
                        EXPECT_EQ(spec.canonical_text(), want.spec.canonical_text())
                            << want.spec.label() << " quick=" << quick << " seed=" << seed;
                        EXPECT_EQ(shared[e].jobs[j].cost, want.cost) << want.spec.label();
                        ++compared;
                    }
                }
            }
        }
    }
    // 38 jobs per tuning x 2 tunings x 4 seeds x 3 audit modes.
    EXPECT_EQ(compared, 912u);
}

}  // namespace
}  // namespace hsw::engine
