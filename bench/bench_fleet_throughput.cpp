// Multi-shard fleet rig: throughput through a Router over 1/4/8
// in-process SurveyService shards (LocalTransport, so syscall cost does
// not drown the effect being measured), emitted through BenchJson
// (stdout + bench_fleet_throughput.json, or --json <path>).
//
// What sharding buys a cache-fronted fleet on one box is *aggregate
// hot-cache capacity*: every shard runs the same fixed per-shard budget
// (1/5 of the working set here), so one shard can keep at most ~20% of
// the set memory-resident while eight shards -- each owning only its
// consistent-hash partition -- hold all of it. The scenarios:
//
//   hot   a prewarmed working set accessed uniformly at random. Requests
//         that hit a shard's hot cache cost ~6 us; the remainder fall to
//         that shard's disk cache (read + SHA-256 verify, ~45 us). As the
//         shard count grows, each shard's partition shrinks into its
//         budget and the fleet's hot-hit ratio -- and throughput -- climbs.
//   warm  every request is a brand-new spec, so every request computes.
//         Compute shares one machine's cores regardless of shard count;
//         this leg documents the honest ceiling (expect ~flat scaling on
//         a small box) rather than letting the hot numbers imply fleet
//         magic.
//
// The rig also asserts correctness while it measures:
//
//   * byte identity: every routed payload must equal the payload a
//     standalone (unsharded) service computes for the same spec;
//   * failover under load: a 4-shard hot run kills one shard's transport
//     mid-run and requires zero client-visible failures.
//
//   bench_fleet_throughput [--requests N] [--clients N] [--specs N] [--json PATH]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "router/local_transport.hpp"
#include "router/router.hpp"
#include "service/service.hpp"
#include "util/bench_json.hpp"
#include "util/stats.hpp"

using namespace hsw;

namespace {

service::protocol::Request make_request(std::uint64_t seed) {
    service::protocol::Request req;
    req.verb = service::protocol::Verb::Query;
    req.experiment = "fig3";
    req.quick = true;
    req.seed = seed;
    return req;
}

/// Deterministic uniform draw for request i (splitmix64 finalizer), so
/// the access pattern is random -- LRU's stationary regime -- instead of
/// a cyclic scan, LRU's pathological one.
std::uint64_t draw(std::uint64_t i) {
    std::uint64_t z = i + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/// One router in front of `shard_count` in-process services, every shard
/// with the same hot-cache byte budget and its own disk-cache directory.
struct Fleet {
    router::LocalTransport transport;
    std::vector<std::unique_ptr<service::SurveyService>> services;
    std::unique_ptr<router::Router> rtr;

    Fleet(unsigned shard_count, unsigned clients, std::size_t hot_budget_bytes,
          const std::filesystem::path& disk_root) {
        std::vector<router::ShardEndpoint> endpoints;
        for (unsigned i = 0; i < shard_count; ++i) {
            service::ServiceConfig cfg;
            cfg.workers = 2;
            cfg.hot_cache.max_bytes = hot_budget_bytes;
            // One internal cache shard: the budget is the budget, with no
            // per-internal-shard slop -- this bench measures capacity.
            cfg.hot_cache.shards = 1;
            cfg.disk_cache_dir = disk_root / ("shard" + std::to_string(i));
            auto svc = std::make_unique<service::SurveyService>(cfg);
            // append: GCC 12's -Wrestrict misfires on `"s" + std::string`.
            endpoints.push_back({std::string{"s"}.append(std::to_string(i)), "127.0.0.1",
                                 static_cast<std::uint16_t>(9100 + i)});
            transport.add_endpoint(
                endpoints.back().address(),
                [svc = svc.get()](const service::protocol::Request& req) {
                    return svc->handle(req);
                });
            services.push_back(std::move(svc));
        }
        router::RouterConfig cfg;
        cfg.probe_interval = std::chrono::milliseconds{0};  // no prober noise
        cfg.eject_after = 2;
        cfg.backoff_base = std::chrono::milliseconds{1};
        cfg.max_idle_per_shard = clients;  // steady state: zero dials
        rtr = std::make_unique<router::Router>(
            router::FleetMap{std::move(endpoints), {}}, transport, cfg);
    }
};

struct Measurement {
    double wall_s = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double requests_per_s = 0.0;
    std::uint64_t failed = 0;
    std::uint64_t hot = 0, disk = 0, computed = 0;
};

/// `clients` threads drive `requests` total queries through the router.
/// next_seed selects each request's spec. mid_run (optional) fires once in
/// the main thread when roughly half the requests have completed.
template <typename NextSeed, typename MidRun>
Measurement measure(router::Router& rtr, unsigned clients, unsigned requests,
                    NextSeed next_seed, MidRun mid_run) {
    std::vector<std::vector<double>> latencies(clients);
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> hot{0}, disk{0}, computed{0};
    std::atomic<std::uint64_t> done{0};
    std::vector<std::thread> threads;
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            for (unsigned i = c; i < requests; i += clients) {
                const auto req = make_request(next_seed(i));
                const auto q0 = std::chrono::steady_clock::now();
                const auto response = rtr.handle(req);
                const auto q1 = std::chrono::steady_clock::now();
                if (!response.ok()) {
                    failed.fetch_add(1, std::memory_order_relaxed);
                } else {
                    using Source = service::protocol::Source;
                    if (response.source == Source::HotCache) {
                        hot.fetch_add(1, std::memory_order_relaxed);
                    } else if (response.source == Source::DiskCache) {
                        disk.fetch_add(1, std::memory_order_relaxed);
                    } else if (response.source == Source::Computed) {
                        computed.fetch_add(1, std::memory_order_relaxed);
                    }
                }
                latencies[c].push_back(
                    std::chrono::duration<double, std::milli>{q1 - q0}.count());
                done.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    mid_run(done, requests);
    for (auto& t : threads) t.join();

    Measurement m;
    m.wall_s =
        std::chrono::duration<double>{std::chrono::steady_clock::now() - t0}.count();
    m.failed = failed.load();
    m.hot = hot.load();
    m.disk = disk.load();
    m.computed = computed.load();
    std::vector<double> all;
    for (const auto& slice : latencies) {
        all.insert(all.end(), slice.begin(), slice.end());
    }
    if (!all.empty()) {
        const util::QuantileSummary q = util::quantile_summary(all);
        m.p50_ms = q.p50;
        m.p99_ms = q.p99;
        m.requests_per_s = static_cast<double>(all.size()) / m.wall_s;
    }
    return m;
}

void no_mid_run(std::atomic<std::uint64_t>&, unsigned) {}

}  // namespace

int main(int argc, char** argv) {
    unsigned requests = 40000;
    unsigned warm_requests = 300;
    unsigned clients = 16;
    unsigned spec_count = 128;
    std::string json_path = "bench_fleet_throughput.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
            requests = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
            clients = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--specs") == 0 && i + 1 < argc) {
            spec_count = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        } else if (util::parse_json_flag(argc, argv, i, json_path)) {
            // consumed "--json <path>"
        } else {
            std::fprintf(
                stderr,
                "usage: %s [--requests N] [--clients N] [--specs N] [--json PATH]\n",
                argv[0]);
            return 2;
        }
    }

    const std::filesystem::path scratch =
        std::filesystem::temp_directory_path() / "hsw_fleet_bench";
    std::filesystem::remove_all(scratch);

    // Reference payloads from a standalone, unsharded service: every
    // routed response must be byte-identical to these, at every shard
    // count -- that is the content-addressing contract failover relies on.
    // Their total size also defines the working set the cache budget is
    // sized against.
    std::vector<std::string> reference(spec_count);
    std::size_t working_set_bytes = 0;
    {
        service::ServiceConfig cfg;
        cfg.workers = 2;
        service::SurveyService direct{cfg};
        for (unsigned s = 0; s < spec_count; ++s) {
            const auto response = direct.handle(make_request(s));
            if (!response.ok()) {
                std::fprintf(stderr, "direct query %u failed: %s\n", s,
                             response.payload.c_str());
                return 1;
            }
            reference[s] = std::string{response.payload_view()};
            working_set_bytes += reference[s].size();
        }
    }
    // Per-shard budget: one shard keeps ~1/5 of the set resident; a shard
    // in an 8-way fleet owns ~1/8 of the keys (ring imbalance ~±10%),
    // which fits with margin.
    const std::size_t hot_budget = working_set_bytes / 5;

    util::BenchJson out{"bench_fleet_throughput"};
    out.meta()
        .set("clients", clients)
        .set("requests", requests)
        .set("specs", spec_count)
        .set("working_set_bytes", static_cast<std::uint64_t>(working_set_bytes))
        .set("hot_budget_bytes_per_shard", static_cast<std::uint64_t>(hot_budget));

    double hot_1shard = 0.0;
    for (const unsigned shard_count : {1u, 4u, 8u}) {
        Fleet fleet{shard_count, clients, hot_budget,
                    scratch / std::to_string(shard_count)};

        // Prewarm + byte-identity gate: each spec routes to its primary
        // (computing it into that shard's disk cache), and the routed
        // bytes must match the unsharded reference. A second pass settles
        // the hot caches into their steady state.
        for (unsigned pass = 0; pass < 2; ++pass) {
            for (unsigned s = 0; s < spec_count; ++s) {
                const auto response = fleet.rtr->handle(make_request(s));
                if (!response.ok() || response.payload_view() != reference[s]) {
                    std::fprintf(stderr,
                                 "shards=%u spec=%u: routed response diverged "
                                 "from direct service\n",
                                 shard_count, s);
                    return 1;
                }
            }
        }

        const auto hot = measure(
            *fleet.rtr, clients, requests,
            [spec_count](unsigned i) { return draw(i) % spec_count; }, no_mid_run);
        // Warm leg: seeds beyond the working set, so every request is a
        // fresh spec and computes.
        const auto warm = measure(
            *fleet.rtr, clients, warm_requests,
            [spec_count, shard_count](unsigned i) {
                return 1000000u + shard_count * 100000u + i;
            },
            no_mid_run);
        if (hot.failed != 0 || warm.failed != 0) {
            std::fprintf(stderr, "shards=%u: %llu requests failed\n", shard_count,
                         static_cast<unsigned long long>(hot.failed + warm.failed));
            return 1;
        }
        if (shard_count == 1) hot_1shard = hot.requests_per_s;

        const double hot_ratio =
            hot.hot + hot.disk + hot.computed > 0
                ? static_cast<double>(hot.hot) /
                      static_cast<double>(hot.hot + hot.disk + hot.computed)
                : 0.0;
        out.add_run()
            .set("scenario", "hot")
            .set("shards", shard_count)
            .set("req_per_s", hot.requests_per_s)
            .set("p50_ms", hot.p50_ms)
            .set("p99_ms", hot.p99_ms)
            .set("hot_hit_ratio", hot_ratio)
            .set("disk_hits", hot.disk)
            .set("speedup_vs_1shard",
                 hot_1shard > 0 ? hot.requests_per_s / hot_1shard : 1.0);
        out.add_run()
            .set("scenario", "warm")
            .set("shards", shard_count)
            .set("req_per_s", warm.requests_per_s)
            .set("p50_ms", warm.p50_ms)
            .set("p99_ms", warm.p99_ms);
        std::fprintf(stderr,
                     "shards=%u hot %9.1f req/s (hot%% %4.1f, p50 %7.4f ms, "
                     "x%.2f)  warm %7.1f req/s\n",
                     shard_count, hot.requests_per_s, 100.0 * hot_ratio,
                     hot.p50_ms,
                     hot_1shard > 0 ? hot.requests_per_s / hot_1shard : 1.0,
                     warm.requests_per_s);
    }

    // Failover under load: 4 shards, hot traffic, one shard's transport
    // dies mid-run. Failover must absorb it -- zero client-visible
    // failures is a hard gate, not a statistic.
    {
        Fleet fleet{4, clients, hot_budget, scratch / "failover"};
        for (unsigned s = 0; s < spec_count; ++s) {
            (void)fleet.rtr->handle(make_request(s));
        }
        const std::string victim = fleet.rtr->fleet().shards()[0].address();
        const auto kill_mid_run = [&](std::atomic<std::uint64_t>& done,
                                      unsigned total) {
            while (done.load(std::memory_order_relaxed) < total / 2) {
                std::this_thread::sleep_for(std::chrono::milliseconds{1});
            }
            fleet.transport.set_down(victim, true);
        };
        const auto m = measure(
            *fleet.rtr, clients, requests,
            [spec_count](unsigned i) { return draw(i) % spec_count; },
            kill_mid_run);
        const auto stats = fleet.rtr->stats();
        out.add_run()
            .set("scenario", "failover-under-load")
            .set("shards", 4u)
            .set("req_per_s", m.requests_per_s)
            .set("p99_ms", m.p99_ms)
            .set("failed_requests", m.failed)
            .set("failovers", stats.failovers)
            .set("ejections",
                 [&] {
                     std::uint64_t n = 0;
                     for (const auto& h : stats.shards) n += h.ejections;
                     return n;
                 }());
        std::fprintf(stderr,
                     "failover: %9.1f req/s, %llu failed, %llu failovers\n",
                     m.requests_per_s, static_cast<unsigned long long>(m.failed),
                     static_cast<unsigned long long>(stats.failovers));
        if (m.failed != 0) {
            std::fprintf(stderr, "FAIL: shard death leaked %llu client errors\n",
                         static_cast<unsigned long long>(m.failed));
            return 1;
        }
    }

    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);

    const std::string json = out.to_string();
    std::fputs(json.c_str(), stdout);
    if (!out.write(json_path)) return 1;
    return 0;
}
