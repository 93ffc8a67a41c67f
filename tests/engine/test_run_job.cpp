// engine::run_job / CancelToken: the service-facing entry points, plus
// the ResultCache counter surface they feed and the spec hashes that key it.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "engine/cancel.hpp"
#include "engine/engine.hpp"
#include "engine/result_cache.hpp"
#include "engine/survey_experiments.hpp"

using namespace hsw::engine;

namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& leaf) {
    const fs::path dir = fs::path{testing::TempDir()} / ("hsw-run-job-" + leaf);
    fs::remove_all(dir);
    return dir;
}

Job counting_job(std::atomic<int>* runs, const std::string& point = "all") {
    Job job;
    job.spec.experiment = "unit";
    job.spec.point = point;
    job.run = [runs](const ExperimentSpec& spec) {
        runs->fetch_add(1);
        return "bytes for " + spec.label();
    };
    return job;
}

// The result cache and the service's hot cache key each job by its spec
// hash, so a registry's jobs must be indexable by that hash alone: two jobs
// with one hash would be one job to both caches.
std::map<std::string, const Job*> index_by_spec_hash(const std::vector<Experiment>& experiments) {
    std::map<std::string, const Job*> index;
    for (const auto& experiment : experiments) {
        for (const auto& job : experiment.jobs) {
            EXPECT_TRUE(index.emplace(job.spec.hash_hex(), &job).second) << job.spec.label();
        }
    }
    return index;
}

}  // namespace

TEST(RunJobTest, ComputesWithoutCache) {
    std::atomic<int> runs{0};
    const Job job = counting_job(&runs);
    const JobResult result = run_job(job);
    EXPECT_EQ(result.payload, "bytes for unit/all");
    EXPECT_EQ(result.source, JobSource::Computed);
    EXPECT_EQ(runs.load(), 1);
}

TEST(RunJobTest, CacheDisciplineComputeStoreThenHit) {
    std::atomic<int> runs{0};
    const Job job = counting_job(&runs);
    ResultCache cache{fresh_dir("discipline")};

    const JobResult first = run_job(job, &cache);
    EXPECT_EQ(first.source, JobSource::Computed);
    const JobResult second = run_job(job, &cache);
    EXPECT_EQ(second.source, JobSource::DiskCache);
    EXPECT_EQ(second.payload, first.payload);
    EXPECT_EQ(runs.load(), 1);

    const auto counters = cache.counters();
    EXPECT_EQ(counters.hits, 1u);
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.stores, 1u);
}

TEST(RunJobTest, CorruptEntryReadsAsMissAndIsRewritten) {
    std::atomic<int> runs{0};
    const Job job = counting_job(&runs);
    ResultCache cache{fresh_dir("corrupt")};
    (void)run_job(job, &cache);

    // Truncate the entry; the next load must miss, recompute, and re-store.
    const fs::path entry = cache.entry_path(job.spec);
    ASSERT_TRUE(fs::exists(entry));
    fs::resize_file(entry, 4);
    const JobResult again = run_job(job, &cache);
    EXPECT_EQ(again.source, JobSource::Computed);
    EXPECT_EQ(runs.load(), 2);

    const auto counters = cache.counters();
    EXPECT_EQ(counters.misses, 2u);  // cold miss + corrupt-entry miss
    EXPECT_EQ(counters.stores, 2u);
}

TEST(RunJobTest, CancelledTokenPreventsComputation) {
    std::atomic<int> runs{0};
    const Job job = counting_job(&runs);
    CancelToken token;
    token.cancel();
    EXPECT_THROW((void)run_job(job, nullptr, &token), CancelledError);
    EXPECT_EQ(runs.load(), 0);  // doomed work never starts
}

TEST(RunJobTest, ExpiredDeadlineThrowsCancelled) {
    std::atomic<int> runs{0};
    const Job job = counting_job(&runs);
    CancelToken token;
    token.set_deadline(std::chrono::steady_clock::now() -
                       std::chrono::milliseconds{1});
    EXPECT_THROW((void)run_job(job, nullptr, &token), CancelledError);
    EXPECT_EQ(runs.load(), 0);
}

TEST(RunJobTest, FutureDeadlineDoesNotInterfere) {
    std::atomic<int> runs{0};
    const Job job = counting_job(&runs);
    CancelToken token;
    token.set_deadline(std::chrono::steady_clock::now() + std::chrono::hours{1});
    const JobResult result = run_job(job, nullptr, &token);
    EXPECT_EQ(result.payload, "bytes for unit/all");
}

TEST(JobIndexTest, FindsEveryRegisteredJobBySpecHash) {
    const auto experiments = survey_experiments(SurveyTuning::quick());
    const auto index = index_by_spec_hash(experiments);

    std::size_t total = 0;
    for (const auto& experiment : experiments) {
        for (const auto& job : experiment.jobs) {
            ++total;
            const auto found = index.find(job.spec.hash_hex());
            ASSERT_NE(found, index.end()) << job.spec.label();
            EXPECT_EQ(found->second, &job) << job.spec.label();
        }
    }
    EXPECT_GT(total, 0u);
    EXPECT_EQ(index.size(), total);
}

TEST(JobIndexTest, DistinctTuningsYieldDisjointHashes) {
    SurveyTuning a = SurveyTuning::quick();
    SurveyTuning b = SurveyTuning::quick();
    b.seed = a.seed + 1;
    const auto experiments_a = survey_experiments(a);
    const auto index_a = index_by_spec_hash(experiments_a);

    // No job of the reseeded registry keeps its hash: the content hash
    // covers the seed.
    for (const auto& experiment : survey_experiments(b)) {
        for (const auto& job : experiment.jobs) {
            EXPECT_EQ(index_a.count(job.spec.hash_hex()), 0u) << job.spec.label();
        }
    }
}
