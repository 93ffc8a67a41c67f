// Shared pieces of hsw_bench: the options, the report every workload fills,
// the seeded RNG that derives all inputs, a latency histogram, process counters,
// the benchmark's own in-memory spans, and a blocking loopback client built
// only from the protocol's frame functions.
//
// The benchmark measures each layer from outside, through public entry
// points that the planned refactors keep (see README.md): it never uses
// ServiceClient, call_batch_over_fd, capability memos or trace headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/protocol.hpp"
#include "util/stats.hpp"

namespace hsw::engine {
struct RunReport;
}
namespace hsw::service {
struct ServiceStats;
}
namespace hsw::router {
struct RouterStats;
}

namespace e2e {

namespace protocol = hsw::service::protocol;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 0xC0FFEE;  // SurveyTuning's default: the goldens' seed
    double seconds = 20.0;          // timed load per run
    bool traced = false;
    bool smoke = false;
    bool self_test = false;
    std::string json_path;
    std::string trace_path;
    std::filesystem::path repo_root;
    std::filesystem::path work_dir;  // this process's scratch directory

    [[nodiscard]] double warmup_s() const { return smoke ? 0.2 : 1.0; }
    /// Serving metrics are medians over windows of this length, so a burst
    /// of host noise moves one window, not the run.
    [[nodiscard]] double window_s() const { return smoke ? 0.25 : 1.0; }
    [[nodiscard]] int setup_repeats() const { return smoke ? 1 : 3; }
    /// Load generator width: at most nproc threads and connections.
    [[nodiscard]] unsigned generator_threads() const;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
};

/// Everything one workload run produces. Only the main thread writes it,
/// except fail(), which load threads may call.
class Report {
public:
    std::string workload;
    std::vector<Metric> end_to_end;  // gated; measured with tracing off
    std::vector<Metric> layers;      // per-layer; from the traced run
    std::vector<Metric> extra;       // workload-specific; printed and stored only
    std::vector<std::string> ledger;
    std::vector<std::pair<std::string, std::string>> info;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add_e2e(std::string name, double value, std::string unit, std::uint64_t n);
    void add_layer(std::string name, double value, std::string unit, std::uint64_t n);
    void add_extra(std::string name, double value, std::string unit, std::uint64_t n);
    void note(std::string key, std::string value);
    void note(std::string key, double value);

    /// Records a failed output check; the run then reports correct=false.
    void fail(const std::string& why);
    [[nodiscard]] bool correct() const { return check_failures() == 0; }
    [[nodiscard]] std::uint64_t check_failures() const;
    [[nodiscard]] std::vector<std::string> failures() const;

private:
    // Behind a pointer so a Report stays movable.
    std::unique_ptr<std::mutex> fail_lock_ = std::make_unique<std::mutex>();
    std::vector<std::string> failures_;
    std::uint64_t check_failures_ = 0;
};

/// splitmix64. Every input of every workload derives from --seed through
/// it, so one seed always yields the same specs, draws and arrival times.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_{seed} {}
    std::uint64_t next();
    double uniform();  // [0, 1)
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

private:
    std::uint64_t state_;
};

/// An independent stream of the run seed, one per purpose.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

using hsw::util::mean;
using hsw::util::median;
using hsw::util::quantile;

/// Log-linear latency histogram: exact below 256 ns, then 128 buckets per
/// power of two (under 0.8 % wide). Fixed size, so a run's memory does not
/// grow with the number of requests it completes.
class Histogram {
public:
    void add(double us);
    void merge(const Histogram& other);
    /// Interpolated within the bucket that holds the rank; 0 when empty.
    [[nodiscard]] double percentile(double q) const;
    [[nodiscard]] std::uint64_t count() const { return total_; }

private:
    static constexpr std::size_t kBuckets = 256 + 56 * 128;
    std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets, 0);
    std::uint64_t total_ = 0;
};

/// Process user+sys CPU seconds (getrusage).
[[nodiscard]] double process_cpu_s();
/// Peak resident set of this process, MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// `text` as a JSON string literal, quotes included.
[[nodiscard]] std::string json_string(std::string_view text);

/// 64-bit FNV-1a: artifact digests for pass-to-pass identity checks.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

/// One quick-tuned whole-experiment query: the serving workloads' unit.
struct Spec {
    std::string experiment;
    std::uint64_t seed = 0;
    [[nodiscard]] protocol::Request request(std::uint64_t tag = 0) const;
};

/// The serve mix: quick whole-experiment payloads of 0.7-12.7 KB that
/// compute in 0.2-9.4 ms each.
[[nodiscard]] const std::vector<std::string>& serve_mix();

/// Runs `query` over every spec from `threads` threads: a fixed spec list
/// at fixed parallelism, so set-up work repeats. A failed query fails the
/// run.
void prewarm(const std::function<bool(const Spec&)>& query, const std::vector<Spec>& specs,
             unsigned threads, Report& report);

/// `count` distinct seeds from one stream, skipping any in `taken`
/// (which receives them).
[[nodiscard]] std::vector<std::uint64_t> draw_seeds(Rng& rng, std::size_t count,
                                                    std::vector<std::uint64_t>& taken);
/// Every serve-mix experiment at every seed, seed-major.
[[nodiscard]] std::vector<Spec> specs_for(const std::vector<std::uint64_t>& seeds);

/// Benchmark-side spans, kept in memory and written as Chrome-trace JSON
/// when the run ends.
class TraceLog {
public:
    struct Span {
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        double start_us = 0.0;  // since the process epoch
        double dur_us = 0.0;
        std::uint32_t tid = 0;
    };

    explicit TraceLog(std::size_t capacity) : capacity_{capacity} {}
    void add(Span span);
    [[nodiscard]] bool write_chrome(const std::string& path) const;
    [[nodiscard]] std::size_t kept() const;
    [[nodiscard]] static double epoch_us(Clock::time_point t);

private:
    std::size_t capacity_;
    mutable std::mutex lock_;
    std::vector<Span> spans_;  // the first `capacity_` spans
};

/// Blocking loopback TCP connection speaking length-prefixed frames via
/// protocol::write_frame/read_frame. Receives time out after 10 s.
class Conn {
public:
    /// Throws std::runtime_error when the connection fails.
    explicit Conn(std::uint16_t port);
    ~Conn();
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    [[nodiscard]] bool send(std::string_view frame) const;
    [[nodiscard]] std::optional<std::string> recv() const;

private:
    int fd_ = -1;
};

/// Per-request client stages of a traced run: the benchmark's own spans
/// around the calls it makes (request encode, wait for the reply, reply
/// parse and check), one record per operation.
struct StageTimes {
    std::vector<double> encode_us, wait_us, parse_us, total_us;
    void add(double encode, double wait, double parse, double total);
    void merge(const StageTimes& other);
};

/// client.{encode,wait,parse}_us layers plus the ledger lines that split
/// an operation into them and print the residual explicitly. Returns the
/// mean client.wait.
double add_client_stages(const StageTimes& stages, const std::string& op, Report& report);

/// Counts over a window, from SurveyService::stats() deltas.
void add_service_counts(const hsw::service::ServiceStats& before,
                        const hsw::service::ServiceStats& after, Report& report);
/// Router::stats() deltas: forwarded_per_query, failovers, unavailable.
void add_router_counts(const hsw::router::RouterStats& before,
                       const hsw::router::RouterStats& after, Report& report);

/// One engine pass (a run_experiments call) reduced to the numbers the
/// sim/survey/engine layer metrics need.
struct PassStats {
    double wall_s = 0.0;
    double cpu_s = 0.0;       // process CPU during the pass
    double body_s = 0.0;      // sum of job-body wall times
    double critical_ms = 0.0; // slowest job
    unsigned workers = 1;
    std::uint64_t events = 0;
    std::uint64_t cache_hits = 0, cache_misses = 0, cache_stores = 0;
    std::map<std::string, double> experiment_ms;  // sum of job bodies
};
[[nodiscard]] PassStats pass_stats(const hsw::engine::RunReport& run, double wall_s,
                                   double cpu_s, unsigned workers);
/// sim.*, survey.*_ms and engine.* layers: medians over the passes.
void add_engine_layers(const std::vector<PassStats>& passes, Report& report);
/// One uncached quick survey (all experiments) at `seed`: the engine
/// layers' input on workloads that do not run the survey themselves.
[[nodiscard]] PassStats quick_survey_pass(std::uint64_t seed, unsigned workers);

/// Layer costs measured in isolation on a workload's own specs; the ledger
/// composes them with the workload's client-side stages.
struct Isolation {
    double route_key_ns = 0, encode_request_ns = 0, parse_request_ns = 0;
    double encode_header_ns = 0, parse_response_ns = 0;
    double encode_batch_us = 0, parse_batch_us = 0;
    double hot_lookup_ns = 0, fast_path_ns = 0, query_hot_us = 0, query_disk_us = 0;
    double load_us = 0, store_us = 0, run_job_disk_us = 0, pack_us = 0;
    double ping_rtt_us = 0, hot_rtt_us = 0, residual_us = 0;
    double router_local_overhead_us = 0, router_hop_us = 0;
};
/// Runs every isolation pass on `specs` (quick whole-experiment queries)
/// and adds the per-layer metrics. `router_counts` adds the router count
/// layers from the mini fleet's own traffic (workloads without a router).
[[nodiscard]] Isolation run_isolation(const Options& options, const std::vector<Spec>& specs,
                                      bool router_counts, Report& report);

// The four workloads.
[[nodiscard]] Report run_survey_cold(const Options& options);
[[nodiscard]] Report run_serve_hot(const Options& options);
[[nodiscard]] Report run_serve_mixed(const Options& options);
[[nodiscard]] Report run_fleet_routed(const Options& options);

}  // namespace e2e
