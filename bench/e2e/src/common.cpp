#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "engine/engine.hpp"
#include "engine/survey_experiments.hpp"
#include "router/router.hpp"
#include "service/service.hpp"

namespace e2e {

namespace {

const Clock::time_point kEpoch = Clock::now();

std::string fixed(double value, int digits) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, value);
    return buf;
}

}  // namespace

std::string json_string(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

unsigned Options::generator_threads() const {
    const unsigned n = std::thread::hardware_concurrency();
    return std::clamp(n, 1u, 4u);
}

// --- Report ------------------------------------------------------------------

void Report::add_e2e(std::string name, double value, std::string unit, std::uint64_t n) {
    end_to_end.push_back(Metric{std::move(name), value, std::move(unit), n});
}
void Report::add_layer(std::string name, double value, std::string unit, std::uint64_t n) {
    layers.push_back(Metric{std::move(name), value, std::move(unit), n});
}
void Report::add_extra(std::string name, double value, std::string unit, std::uint64_t n) {
    extra.push_back(Metric{std::move(name), value, std::move(unit), n});
}
void Report::note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
}
void Report::note(std::string key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    info.emplace_back(std::move(key), buf);
}

void Report::fail(const std::string& why) {
    std::lock_guard<std::mutex> guard{*fail_lock_};
    ++check_failures_;
    if (failures_.size() < 8) failures_.push_back(why);
}

std::uint64_t Report::check_failures() const {
    std::lock_guard<std::mutex> guard{*fail_lock_};
    return check_failures_;
}

std::vector<std::string> Report::failures() const {
    std::lock_guard<std::mutex> guard{*fail_lock_};
    return failures_;
}

// --- inputs ------------------------------------------------------------------

std::uint64_t Rng::next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
    Rng rng{seed ^ (stream * 0xD1B54A32D192ED03ull)};
    return rng.next();
}

protocol::Request Spec::request(std::uint64_t tag) const {
    protocol::Request req;
    req.verb = protocol::Verb::Query;
    req.experiment = experiment;
    req.point = "*";
    req.seed = seed;
    req.quick = true;
    req.tag = tag;
    return req;
}

const std::vector<std::string>& serve_mix() {
    static const std::vector<std::string> mix = {
        "fig3", "fig4", "fig5", "fig6", "fig7", "xgen_c6", "skx_hwp", "skx_avx512"};
    return mix;
}

void prewarm(const std::function<bool(const Spec&)>& query, const std::vector<Spec>& specs,
             unsigned threads, Report& report) {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (std::size_t i = t; i < specs.size(); i += threads) {
                if (!query(specs[i])) report.fail("prewarm query failed: " + specs[i].experiment);
            }
        });
    }
    for (auto& thread : pool) thread.join();
}

std::vector<std::uint64_t> draw_seeds(Rng& rng, std::size_t count,
                                      std::vector<std::uint64_t>& taken) {
    std::vector<std::uint64_t> out;
    while (out.size() < count) {
        const std::uint64_t seed = rng.next() >> 16;  // short hex on the wire
        if (std::find(taken.begin(), taken.end(), seed) != taken.end()) continue;
        taken.push_back(seed);
        out.push_back(seed);
    }
    return out;
}

std::vector<Spec> specs_for(const std::vector<std::uint64_t>& seeds) {
    std::vector<Spec> specs;
    for (const std::uint64_t seed : seeds) {
        for (const auto& experiment : serve_mix()) specs.push_back(Spec{experiment, seed});
    }
    return specs;
}

// --- histogram and process counters ----------------------------------------

namespace {

// Bucket i covers [lo, lo + width) nanoseconds.
std::size_t bucket_of(std::uint64_t ns) {
    if (ns < 256) return static_cast<std::size_t>(ns);
    const int msb = 63 - __builtin_clzll(ns);
    const int shift = msb - 7;  // ns >> shift lands in [128, 256)
    return 256 + static_cast<std::size_t>(shift - 1) * 128 + ((ns >> shift) - 128);
}

std::pair<double, double> bucket_range(std::size_t i) {
    if (i < 256) return {static_cast<double>(i), 1.0};
    const std::size_t shift = (i - 256) / 128 + 1;
    const std::uint64_t mantissa = 128 + (i - 256) % 128;
    return {static_cast<double>(mantissa << shift), static_cast<double>(std::uint64_t{1} << shift)};
}

}  // namespace

void Histogram::add(double us) {
    const double ns = std::max(0.0, us * 1e3);
    const auto v = static_cast<std::uint64_t>(std::min(ns, 1e15));
    ++counts_[std::min(bucket_of(v), kBuckets - 1)];
    ++total_;
}

void Histogram::merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
}

double Histogram::percentile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_ - 1);
    double below = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        const auto c = static_cast<double>(counts_[i]);
        if (c > 0 && below + c > rank) {
            const auto [lo, width] = bucket_range(i);
            return (lo + width * (rank - below + 0.5) / c) / 1e3;
        }
        below += c;
    }
    return 0.0;
}

double process_cpu_s() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(std::string_view bytes) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

// --- spans -------------------------------------------------------------------

void TraceLog::add(Span span) {
    std::lock_guard<std::mutex> guard{lock_};
    if (spans_.size() < capacity_) spans_.push_back(std::move(span));
}

std::size_t TraceLog::kept() const {
    std::lock_guard<std::mutex> guard{lock_};
    return spans_.size();
}

double TraceLog::epoch_us(Clock::time_point t) { return us_between(kEpoch, t); }

bool TraceLog::write_chrome(const std::string& path) const {
    std::vector<Span> spans;
    {
        std::lock_guard<std::mutex> guard{lock_};
        spans = spans_;
    }
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out += "{\"name\":" + json_string(s.name) + ",\"cat\":\"hsw_bench\",\"ph\":\"X\"" +
               ",\"ts\":" + fixed(s.start_us, 3) + ",\"dur\":" + fixed(s.dur_us, 3) +
               ",\"pid\":1,\"tid\":" + std::to_string(s.tid) +
               ",\"args\":{\"id\":" + std::to_string(s.id) +
               ",\"parent\":" + std::to_string(s.parent) + "}}";
        out += i + 1 < spans.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    std::ofstream file{path, std::ios::binary};
    file << out;
    return static_cast<bool>(file);
}

// --- loopback client ---------------------------------------------------------

Conn::Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error{"socket() failed"};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd_);
        fd_ = -1;
        throw std::runtime_error{"connect to 127.0.0.1:" + std::to_string(port) + " failed"};
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
}

Conn::~Conn() {
    if (fd_ >= 0) ::close(fd_);
}

bool Conn::send(std::string_view frame) const { return protocol::write_frame(fd_, frame); }

std::optional<std::string> Conn::recv() const { return protocol::read_frame(fd_); }

// --- client stages -----------------------------------------------------------

void StageTimes::add(double encode, double wait, double parse, double total) {
    encode_us.push_back(encode);
    wait_us.push_back(wait);
    parse_us.push_back(parse);
    total_us.push_back(total);
}

void StageTimes::merge(const StageTimes& other) {
    encode_us.insert(encode_us.end(), other.encode_us.begin(), other.encode_us.end());
    wait_us.insert(wait_us.end(), other.wait_us.begin(), other.wait_us.end());
    parse_us.insert(parse_us.end(), other.parse_us.begin(), other.parse_us.end());
    total_us.insert(total_us.end(), other.total_us.begin(), other.total_us.end());
}

double add_client_stages(const StageTimes& stages, const std::string& op, Report& report) {
    const std::uint64_t n = stages.total_us.size();
    const double encode = mean(stages.encode_us);
    const double wait = mean(stages.wait_us);
    const double parse = mean(stages.parse_us);
    const double total = mean(stages.total_us);
    report.add_layer("client.encode_us", encode, "us", n);
    report.add_layer("client.wait_us", wait, "us", n);
    report.add_layer("client.parse_us", parse, "us", n);
    report.ledger.push_back("client spans, mean per " + op + " (" + std::to_string(n) +
                            " traced), us of self time:");
    report.ledger.push_back("  client.encode            " + fixed(encode, 3));
    report.ledger.push_back("  client.wait              " + fixed(wait, 3));
    report.ledger.push_back("  client.parse             " + fixed(parse, 3));
    report.ledger.push_back("  residual (root self)     " + fixed(total - encode - wait - parse, 3));
    report.ledger.push_back("  = " + op + " total            " + fixed(total, 3));
    return wait;
}

// --- layer counts ------------------------------------------------------------

void add_service_counts(const hsw::service::ServiceStats& before,
                        const hsw::service::ServiceStats& after, Report& report) {
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a);
    };
    report.add_layer("service.response_hits", delta(before.response_hits, after.response_hits),
                     "count", 1);
    report.add_layer("service.hot_hits", delta(before.hot_hits, after.hot_hits), "count", 1);
    report.add_layer("service.disk_hits", delta(before.disk_hits, after.disk_hits), "count", 1);
    report.add_layer("service.computed", delta(before.computed, after.computed), "count", 1);
    report.add_layer("service.coalesced", delta(before.coalesced, after.coalesced), "count", 1);
    const auto rejected = [](const hsw::service::ServiceStats& s) {
        return s.rejected_overload + s.rejected_deadline + s.rejected_unknown +
               s.rejected_draining + s.failed;
    };
    report.add_layer("service.rejected", delta(rejected(before), rejected(after)), "count", 1);
    const double hits = delta(before.hot_cache.hits, after.hot_cache.hits);
    const double misses = delta(before.hot_cache.misses, after.hot_cache.misses);
    report.add_layer("service.hot_cache.hit_ratio",
                     hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
                     static_cast<std::uint64_t>(hits + misses));
    report.add_layer("service.hot_cache.evictions",
                     delta(before.hot_cache.evictions, after.hot_cache.evictions), "count", 1);
    report.add_layer("engine.cache_hits", delta(before.disk_cache.hits, after.disk_cache.hits),
                     "count", 1);
    report.add_layer("engine.cache_misses",
                     delta(before.disk_cache.misses, after.disk_cache.misses), "count", 1);
    report.add_layer("engine.cache_stores",
                     delta(before.disk_cache.stores, after.disk_cache.stores), "count", 1);
}

void add_router_counts(const hsw::router::RouterStats& before,
                       const hsw::router::RouterStats& after, Report& report) {
    const double queries = static_cast<double>(after.queries - before.queries);
    const double forwarded = static_cast<double>(after.forwarded - before.forwarded);
    report.add_layer("router.forwarded_per_query", forwarded > 0 ? queries / forwarded : 1.0,
                     "ratio", static_cast<std::uint64_t>(forwarded));
    report.add_layer("router.failovers",
                     static_cast<double>(after.failovers - before.failovers), "count", 1);
    report.add_layer("router.unavailable",
                     static_cast<double>(after.unavailable - before.unavailable), "count", 1);
}

// --- engine passes -----------------------------------------------------------

PassStats pass_stats(const hsw::engine::RunReport& run, double wall_s, double cpu_s,
                     unsigned workers) {
    PassStats p;
    p.wall_s = wall_s;
    p.cpu_s = cpu_s;
    p.workers = workers;
    for (const auto& job : run.jobs) {
        p.body_s += job.wall_ms / 1e3;
        p.events += job.sim_events;
        p.critical_ms = std::max(p.critical_ms, job.wall_ms);
        p.experiment_ms[job.experiment] += job.wall_ms;
    }
    p.cache_hits = run.disk_cache.hits;
    p.cache_misses = run.disk_cache.misses;
    p.cache_stores = run.disk_cache.stores;
    return p;
}

void add_engine_layers(const std::vector<PassStats>& passes, Report& report) {
    const auto over = [&passes](auto field) {
        std::vector<double> values;
        for (const PassStats& p : passes) values.push_back(field(p));
        return median(values);
    };
    const std::uint64_t n = passes.size();
    report.add_layer("sim.events", over([](const PassStats& p) {
                         return static_cast<double>(p.events);
                     }),
                     "count", n);
    report.add_layer("sim.ns_per_event", over([](const PassStats& p) {
                         return p.events > 0 ? p.body_s * 1e9 / static_cast<double>(p.events)
                                             : 0.0;
                     }),
                     "ns", n);
    if (!passes.empty()) {
        for (const auto& [experiment, ms] : passes.front().experiment_ms) {
            report.add_layer("survey." + experiment + "_ms",
                             over([&experiment](const PassStats& p) {
                                 const auto it = p.experiment_ms.find(experiment);
                                 return it == p.experiment_ms.end() ? 0.0 : it->second;
                             }),
                             "ms", n);
        }
    }
    report.add_layer("engine.critical_job_ms",
                     over([](const PassStats& p) { return p.critical_ms; }), "ms", n);
    report.add_layer("engine.idle_frac", over([](const PassStats& p) {
                         return 1.0 - p.body_s / (p.workers * p.wall_s);
                     }),
                     "ratio", n);
    report.add_layer("engine.outside_job_cpu_s",
                     over([](const PassStats& p) { return p.cpu_s - p.body_s; }), "s", n);
}

PassStats quick_survey_pass(std::uint64_t seed, unsigned workers) {
    hsw::engine::SurveyTuning tuning = hsw::engine::SurveyTuning::quick();
    tuning.seed = seed;
    const auto experiments = hsw::engine::survey_experiments(tuning);
    hsw::engine::RunOptions options;
    options.jobs = workers;
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    const hsw::engine::RunReport run = hsw::engine::run_experiments(experiments, options);
    const double wall = seconds_between(t0, Clock::now());
    const double cpu = process_cpu_s() - cpu0;
    if (!run.ok()) throw std::runtime_error{"quick survey pass failed"};
    return pass_stats(run, wall, cpu, workers);
}

}  // namespace e2e
