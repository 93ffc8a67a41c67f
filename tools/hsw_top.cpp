// hsw_top: live terminal dashboard for a running hsw_surveyd.
//
//   hsw_top --port-file /tmp/hswd.port
//
// polls the daemon's `metrics` verb (JSON form) once per interval and
// renders the numbers that matter when watching the service under load:
// request rate (computed from counter deltas between polls), queue depth,
// cache hit ratios at every tier, and latency quantiles from the
// request-latency histogram. `--once` prints a single snapshot and exits,
// which is what the CI smoke job uses.
//
// Pointed at an hsw_router (or hsw_fleet) instead, `--fleet` adds the
// per-shard breakdown the router embeds under the "shards" key of its
// aggregated metrics document; without the flag the merged top level
// renders exactly like a single daemon's.
#include <cstdio>
#include <cstring>
#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "service/server.hpp"
#include "util/minijson.hpp"
#include "util/parse.hpp"
#include "util/port_file.hpp"

using namespace hsw;

namespace {

int usage(const char* argv0, int code) {
    std::FILE* out = code == 0 ? stdout : stderr;
    std::fprintf(
        out,
        "usage: %s [options]\n"
        "\n"
        "Terminal dashboard for hsw_surveyd: polls the `metrics` verb and\n"
        "renders request rate, queue depth, cache hit ratios and latency\n"
        "quantiles.\n"
        "\n"
        "  --host H         daemon host (default: 127.0.0.1)\n"
        "  --port P         daemon port\n"
        "  --port-file F    read the port from F (written by hsw_surveyd)\n"
        "  --interval-ms N  poll interval (default: 1000)\n"
        "  --count N        exit after N refreshes (default: run forever)\n"
        "  --once           print one snapshot without screen control, exit\n"
        "  --fleet          render the per-shard breakdown a router embeds\n"
        "                   under \"shards\" (needs an hsw_router target)\n",
        argv0);
    return code;
}

/// One decoded metrics snapshot; every field defaults to zero so a daemon
/// that has not yet seen traffic still renders.
struct Sample {
    double requests = 0, completed = 0, rejected = 0;
    double hot_hits = 0, disk_hits = 0, computed = 0, coalesced = 0;
    double hot_cache_hits = 0, hot_cache_misses = 0, hot_cache_bytes = 0;
    double result_cache_hits = 0, result_cache_misses = 0;
    double connections = 0, open_connections = 0, frames = 0, malformed = 0;
    double queue_depth = 0;
    double trace_dropped = 0, accesslog_dropped = 0;
    double ejected = 0;
    double lat_count = 0, lat_p50 = 0, lat_p90 = 0, lat_p99 = 0;
    std::chrono::steady_clock::time_point when;
};

Sample decode_sample(const util::json::Value& doc) {
    Sample s;
    s.when = std::chrono::steady_clock::now();
    const util::json::Value* counters = doc.find("counters");
    const util::json::Value* gauges = doc.find("gauges");
    const util::json::Value* histograms = doc.find("histograms");
    const auto counter = [&](const char* metric) {
        return counters ? counters->number_or(metric, 0.0) : 0.0;
    };
    s.requests = counter("hsw_service_requests");
    s.completed = counter("hsw_service_requests_completed");
    s.rejected = counter("hsw_service_requests_rejected");
    s.hot_hits = counter("hsw_service_hot_hits");
    s.disk_hits = counter("hsw_service_disk_hits");
    s.computed = counter("hsw_service_computed");
    s.coalesced = counter("hsw_service_coalesced");
    s.hot_cache_hits = counter("hsw_hot_cache_hits");
    s.hot_cache_misses = counter("hsw_hot_cache_misses");
    s.result_cache_hits = counter("hsw_result_cache_hits");
    s.result_cache_misses = counter("hsw_result_cache_misses");
    s.connections = counter("hsw_server_connections");
    s.frames = counter("hsw_server_frames");
    s.malformed = counter("hsw_server_frames_malformed");
    if (gauges) {
        s.queue_depth = gauges->number_or("hsw_service_queue_depth", 0.0);
        s.open_connections = gauges->number_or("hsw_server_open_connections", 0.0);
        s.hot_cache_bytes = gauges->number_or("hsw_hot_cache_bytes", 0.0);
        s.trace_dropped = gauges->number_or("obs_trace_dropped_spans", 0.0);
        s.accesslog_dropped = gauges->number_or("obs_accesslog_dropped", 0.0);
        s.ejected = gauges->number_or("router_shard_ejected", 0.0);
    }
    if (histograms) {
        if (const util::json::Value* lat =
                histograms->find("hsw_service_request_latency_ms")) {
            s.lat_count = lat->number_or("count", 0.0);
            s.lat_p50 = lat->number_or("p50", 0.0);
            s.lat_p90 = lat->number_or("p90", 0.0);
            s.lat_p99 = lat->number_or("p99", 0.0);
        }
    }
    return s;
}

/// The merged fleet-level view plus (when the target is a router and
/// --fleet asked for it) one Sample per shard, in document order.
struct FleetSample {
    Sample merged;
    std::vector<std::pair<std::string, Sample>> shards;
};

std::optional<FleetSample> fetch(service::ServiceClient& client, bool fleet,
                                 std::string& error) {
    service::protocol::Request request;
    request.verb = service::protocol::Verb::Metrics;
    request.format = service::protocol::MetricsFormat::Json;
    service::protocol::Response response;
    try {
        response = client.call(request);
    } catch (const std::exception& e) {
        error = e.what();
        return std::nullopt;
    }
    if (!response.ok()) {
        error = "daemon error: " + std::string{service::protocol::name(response.code)};
        return std::nullopt;
    }
    const std::optional<util::json::Value> doc = util::json::parse(response.payload, &error);
    if (!doc || !doc->is_object()) {
        if (error.empty()) error = "metrics payload is not a JSON object";
        return std::nullopt;
    }

    FleetSample out;
    out.merged = decode_sample(*doc);
    if (fleet) {
        const util::json::Value* shards = doc->find("shards");
        if (!shards || !shards->is_object()) {
            error = "no \"shards\" key in metrics payload -- is the target an "
                    "hsw_router?";
            return std::nullopt;
        }
        for (const auto& [name, snapshot] : shards->as_object()) {
            out.shards.emplace_back(name, decode_sample(snapshot));
        }
    }
    return out;
}

double ratio_pct(double hits, double misses) {
    const double total = hits + misses;
    return total > 0.0 ? 100.0 * hits / total : 0.0;
}

double request_rate(const Sample& now, const Sample* prev) {
    if (!prev) return 0.0;
    const double dt = std::chrono::duration<double>(now.when - prev->when).count();
    return dt > 0.0 ? (now.requests - prev->requests) / dt : 0.0;
}

void render(const FleetSample& fs, const FleetSample* prev_fs,
            const std::string& target, bool screen_control) {
    if (screen_control) std::fputs("\x1b[H\x1b[2J", stdout);

    const Sample& now = fs.merged;
    const Sample* prev = prev_fs ? &prev_fs->merged : nullptr;
    const double rate = request_rate(now, prev);

    std::printf("hsw_top -- %s\n\n", target.c_str());
    std::printf("requests    %10.0f total   %8.1f req/s   completed %.0f   rejected %.0f\n",
                now.requests, rate, now.completed, now.rejected);
    std::printf("latency ms  p50 %.3f   p90 %.3f   p99 %.3f   (n=%.0f)\n", now.lat_p50,
                now.lat_p90, now.lat_p99, now.lat_count);
    std::printf("queue       depth %.0f\n", now.queue_depth);
    std::printf("sources     hot %.0f   disk %.0f   computed %.0f   coalesced %.0f\n",
                now.hot_hits, now.disk_hits, now.computed, now.coalesced);
    std::printf("hot cache   hit %5.1f%%   (%.0f/%.0f)   %.2f MiB resident\n",
                ratio_pct(now.hot_cache_hits, now.hot_cache_misses), now.hot_cache_hits,
                now.hot_cache_hits + now.hot_cache_misses,
                now.hot_cache_bytes / (1024.0 * 1024.0));
    std::printf("disk cache  hit %5.1f%%   (%.0f/%.0f)\n",
                ratio_pct(now.result_cache_hits, now.result_cache_misses),
                now.result_cache_hits,
                now.result_cache_hits + now.result_cache_misses);
    std::printf("server      connections %.0f (open %.0f)   frames %.0f   malformed %.0f\n",
                now.connections, now.open_connections, now.frames, now.malformed);
    std::printf("obs drops   trace spans %.0f   access-log records %.0f\n",
                now.trace_dropped, now.accesslog_dropped);

    if (!fs.shards.empty()) {
        std::printf("\n%-12s %10s %9s %7s %9s %9s  %s\n", "shard", "requests",
                    "req/s", "hot%", "computed", "p99 ms", "health");
        for (const auto& [name, shard] : fs.shards) {
            const Sample* shard_prev = nullptr;
            if (prev_fs) {
                for (const auto& [prev_name, prev_sample] : prev_fs->shards) {
                    if (prev_name == name) {
                        shard_prev = &prev_sample;
                        break;
                    }
                }
            }
            std::printf("%-12s %10.0f %9.1f %6.1f%% %9.0f %9.3f  %s\n", name.c_str(),
                        shard.requests, request_rate(shard, shard_prev),
                        ratio_pct(shard.hot_cache_hits, shard.hot_cache_misses),
                        shard.computed, shard.lat_p99,
                        shard.ejected > 0 ? "EJECTED" : "ok");
        }
    }
    std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::string port_file;
    std::uint64_t interval_ms = 1000;
    std::uint64_t count = 0;  // 0 = forever
    bool once = false;
    bool fleet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        std::uint64_t n = 0;
        if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
        if (arg == "--once") {
            once = true;
        } else if (arg == "--fleet") {
            fleet = true;
        } else if (arg == "--host") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            host = v;
        } else if (arg == "--port") {
            const char* v = value();
            if (!v || !util::parse_u64(v, n) || n > 65535 || n == 0) {
                return usage(argv[0], 2);
            }
            port = static_cast<std::uint16_t>(n);
        } else if (arg == "--port-file") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            port_file = v;
        } else if (arg == "--interval-ms") {
            const char* v = value();
            if (!v || !util::parse_u64(v, interval_ms) || interval_ms > 3600'000 ||
                interval_ms == 0) {
                return usage(argv[0], 2);
            }
        } else if (arg == "--count") {
            const char* v = value();
            if (!v || !util::parse_u64(v, count) || count > (1u << 30) || count == 0) {
                return usage(argv[0], 2);
            }
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg.c_str());
            return usage(argv[0], 2);
        }
    }

    if (!port_file.empty()) {
        const std::optional<std::uint16_t> p = util::read_port_file(port_file);
        if (!p) {
            std::fprintf(stderr, "hsw_top: no port published in %s\n", port_file.c_str());
            return 1;
        }
        port = *p;
    }
    if (port == 0) {
        std::fprintf(stderr, "hsw_top: need --port or --port-file\n");
        return usage(argv[0], 2);
    }

    const std::string target = host + ":" + std::to_string(port);
    std::optional<service::ServiceClient> client;
    std::optional<FleetSample> prev;
    unsigned long refreshes = 0;
    while (true) {
        std::string error;
        std::optional<FleetSample> sample;
        try {
            if (!client) client.emplace(host, port);
            sample = fetch(*client, fleet, error);
        } catch (const std::exception& e) {
            error = e.what();
        }
        if (!sample) {
            // Drop the connection and retry next tick; --once fails hard so
            // the CI job notices a broken daemon.
            client.reset();
            std::fprintf(stderr, "hsw_top: %s\n", error.c_str());
            if (once) return 1;
        } else {
            render(*sample, prev ? &*prev : nullptr, target, !once);
            prev = sample;
            ++refreshes;
        }
        if (once || (count > 0 && refreshes >= count)) break;
        std::this_thread::sleep_for(std::chrono::milliseconds{interval_ms});
    }
    return 0;
}
