// Measures survey-service throughput and latency through an in-process
// SurveyService at client concurrency in {1, 4, 16}, for three cache
// states, and emits the numbers through the shared BenchJson reporter
// (stdout + bench_service_throughput.json, or --json <path>):
//
//   cold           nothing cached: every request computes
//   warm-disk      on-disk ResultCache populated, hot cache disabled
//   hot            in-memory hot cache populated
//
// plus two socket scenarios that push the same hot traffic through a real
// SurveyServer (epoll reactor) over loopback TCP:
//
//   hot-socket     one request per round-trip
//   hot-pipelined  32 requests per batch frame per round-trip
//
// The interesting ratios: hot/cold p50 is the hot-cache win (a shard-mutex
// lookup versus a full computation), warm-disk/hot is the cost of the disk
// probe + SHA-256 verify the hot cache saves, and requests/s at 16 clients
// versus 1 shows how far coalescing + sharding keep concurrent identical
// queries from serializing. hot-pipelined/hot-socket is the batching win:
// syscalls and wakeups amortized over the window.
//
// --telemetry turns the whole observability stack on for the run --
// metrics registry, span tracing, and the access log with a keep-everything
// policy draining to a scratch file -- so the CI scaling gate measures the
// hot path with logging live, not idealized.
//
//   bench_service_throughput [--requests N] [--experiment NAME]
//                            [--telemetry] [--json PATH]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "obs/accesslog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "util/bench_json.hpp"
#include "util/stats.hpp"

using namespace hsw;

namespace {

struct Scenario {
    const char* label;
    bool disk_cache = false;
    bool hot_cache = false;
    bool prewarm = false;
};

struct Measurement {
    double wall_s = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double requests_per_s = 0.0;
};

service::protocol::Request make_request(const std::string& experiment) {
    service::protocol::Request req;
    req.verb = service::protocol::Verb::Query;
    req.experiment = experiment;
    req.quick = true;  // quick tuning keeps a bench run in seconds
    return req;
}

Measurement measure(service::SurveyService& svc, const std::string& experiment,
                    unsigned clients, unsigned requests) {
    std::vector<std::vector<double>> latencies(clients);
    std::vector<std::thread> threads;
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&svc, &latencies, &experiment, c, clients, requests] {
            const auto req = make_request(experiment);
            for (unsigned i = c; i < requests; i += clients) {
                const auto q0 = std::chrono::steady_clock::now();
                const auto result = svc.query(req);
                const auto q1 = std::chrono::steady_clock::now();
                if (!result.ok()) {
                    std::fprintf(stderr, "query failed: %s\n", result.message.c_str());
                    std::exit(1);
                }
                latencies[c].push_back(
                    std::chrono::duration<double, std::milli>{q1 - q0}.count());
            }
        });
    }
    for (auto& t : threads) t.join();

    Measurement m;
    m.wall_s =
        std::chrono::duration<double>{std::chrono::steady_clock::now() - t0}.count();
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

/// Same hot traffic, but through a real loopback socket: each client
/// thread owns one connection and sends `pipeline` identical requests per
/// round-trip (1 = the classic request/response lockstep). Latency is the
/// window round-trip -- what a pipelining caller actually observes.
Measurement measure_socket(std::uint16_t port, const std::string& experiment,
                           unsigned clients, unsigned requests,
                           unsigned pipeline) {
    std::vector<std::vector<double>> latencies(clients);
    std::vector<std::thread> threads;
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&latencies, &experiment, port, c, clients, requests,
                              pipeline] {
            service::ServiceClient client{"127.0.0.1", port};
            const auto req = make_request(experiment);
            unsigned mine = 0;
            for (unsigned i = c; i < requests; i += clients) ++mine;
            while (mine > 0) {
                const unsigned window =
                    pipeline < mine ? pipeline : mine;
                mine -= window;
                const auto q0 = std::chrono::steady_clock::now();
                if (window == 1 && pipeline == 1) {
                    const auto response = client.call(req);
                    if (!response.ok()) {
                        std::fprintf(stderr, "socket query failed: %s\n",
                                     response.payload.c_str());
                        std::exit(1);
                    }
                } else {
                    const std::vector<service::protocol::Request> batch(window, req);
                    const auto responses = client.call_pipelined(batch);
                    for (const auto& response : responses) {
                        if (!response.ok()) {
                            std::fprintf(stderr, "pipelined query failed: %s\n",
                                         response.payload.c_str());
                            std::exit(1);
                        }
                    }
                }
                const auto q1 = std::chrono::steady_clock::now();
                const double ms =
                    std::chrono::duration<double, std::milli>{q1 - q0}.count();
                for (unsigned j = 0; j < window; ++j) latencies[c].push_back(ms);
            }
        });
    }
    for (auto& t : threads) t.join();

    Measurement m;
    m.wall_s =
        std::chrono::duration<double>{std::chrono::steady_clock::now() - t0}.count();
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

}  // namespace

int main(int argc, char** argv) {
    unsigned requests = 64;
    std::string experiment = "fig3";
    std::string json_path = "bench_service_throughput.json";
    bool telemetry = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
            requests = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--experiment") == 0 && i + 1 < argc) {
            experiment = argv[++i];
        } else if (std::strcmp(argv[i], "--telemetry") == 0) {
            telemetry = true;
        } else if (util::parse_json_flag(argc, argv, i, json_path)) {
            // consumed "--json <path>"
        } else {
            std::fprintf(stderr,
                         "usage: %s [--requests N] [--experiment NAME] "
                         "[--telemetry] [--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }

    obs::accesslog::Writer access_log_writer;
    if (telemetry) {
        // Worst-case observability tax: every request traced, every
        // request kept by the access log, drain thread live.
        obs::set_metrics_enabled(true);
        obs::trace::enable();
        obs::accesslog::set_policy(1.0, 0);
        obs::accesslog::set_identity("bench");
        obs::accesslog::set_enabled(true);
        if (!access_log_writer.start(".hsw-service-bench-access.jsonl")) {
            std::fprintf(stderr, "cannot open access-log scratch file\n");
            return 1;
        }
    }

    const std::filesystem::path disk_dir = ".hsw-service-bench-cache";
    const Scenario scenarios[] = {
        // Cold: no caches at all, every request recomputes -- the baseline.
        {"cold", false, false, false},
        // Warm disk: results on disk, hot cache off, so every request pays
        // the file read + hash verify.
        {"warm-disk", true, false, true},
        // Hot: in-memory cache populated; requests cost a shard lookup.
        {"hot", false, true, true},
    };
    const unsigned client_counts[] = {1, 4, 16};

    util::BenchJson out{"bench_service_throughput"};
    out.meta()
        .set("experiment", experiment)
        .set("requests", requests)
        .set("telemetry", telemetry);
    for (const Scenario& scenario : scenarios) {
        for (const unsigned clients : client_counts) {
            std::filesystem::remove_all(disk_dir);
            service::ServiceConfig cfg;
            cfg.workers = 4;
            if (scenario.disk_cache) cfg.disk_cache_dir = disk_dir;
            if (!scenario.hot_cache) cfg.hot_cache.max_bytes = 0;
            service::SurveyService svc{cfg};
            if (scenario.prewarm) {
                const auto warmup = svc.query(make_request(experiment));
                if (!warmup.ok()) {
                    std::fprintf(stderr, "warmup failed: %s\n",
                                 warmup.message.c_str());
                    return 1;
                }
            }

            const Measurement m = measure(svc, experiment, clients, requests);
            out.add_run()
                .set("scenario", scenario.label)
                .set("clients", clients)
                .set("req_per_s", m.requests_per_s)
                .set("p50_ms", m.p50_ms)
                .set("p99_ms", m.p99_ms);
            std::fprintf(stderr,
                         "%-9s clients=%-2u %8.1f req/s  p50 %7.3f ms  p99 %7.3f ms\n",
                         scenario.label, clients, m.requests_per_s, m.p50_ms,
                         m.p99_ms);
        }
    }
    std::filesystem::remove_all(disk_dir);

    // Socket scenarios: the same hot traffic through the epoll reactor.
    struct SocketScenario {
        const char* label;
        unsigned pipeline;
    };
    const SocketScenario socket_scenarios[] = {
        {"hot-socket", 1},
        {"hot-pipelined", 32},
    };
    for (const SocketScenario& scenario : socket_scenarios) {
        for (const unsigned clients : client_counts) {
            service::ServerConfig cfg;
            cfg.service.workers = 4;
            service::SurveyServer server{cfg};
            server.start();
            {
                service::ServiceClient warm{"127.0.0.1", server.port()};
                const auto warmup = warm.call(make_request(experiment));
                if (!warmup.ok()) {
                    std::fprintf(stderr, "socket warmup failed: %s\n",
                                 warmup.payload.c_str());
                    return 1;
                }
            }
            const Measurement m = measure_socket(server.port(), experiment,
                                                 clients, requests,
                                                 scenario.pipeline);
            server.stop();
            out.add_run()
                .set("scenario", scenario.label)
                .set("clients", clients)
                .set("req_per_s", m.requests_per_s)
                .set("p50_ms", m.p50_ms)
                .set("p99_ms", m.p99_ms);
            std::fprintf(stderr,
                         "%-13s clients=%-2u %8.1f req/s  p50 %7.3f ms  p99 %7.3f ms\n",
                         scenario.label, clients, m.requests_per_s, m.p50_ms,
                         m.p99_ms);
        }
    }

    if (telemetry) {
        access_log_writer.stop();
        std::filesystem::remove(".hsw-service-bench-access.jsonl");
    }

    const std::string json = out.to_string();
    std::fputs(json.c_str(), stdout);
    if (!out.write(json_path)) return 1;
    return 0;
}
