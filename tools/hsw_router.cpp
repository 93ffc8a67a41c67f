// hsw_router: fleet front door for hsw-survey-rpc.
//
//   hsw_router --shard a=127.0.0.1:7788 --shard b=127.0.0.1:7789 --port 7700
//
// terminates the survey protocol on one socket and routes each query by
// its content identity (SHA-256 of the spec) to a shard of hsw_surveyd
// daemons over a consistent-hash ring. Transport failures and
// Overloaded/ShuttingDown answers fail over to the key's replicas with
// bounded, jittered retry; shards that keep failing are ejected and
// re-probed in the background until they answer again. The `metrics`
// verb aggregates across the whole fleet, so `hsw_top --fleet` pointed
// at the router sees every shard.
//
// The `shutdown` verb (hsw_query --shutdown) stops the router only:
// shards are independent daemons with their own lifecycle.
#include <signal.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "obs/accesslog.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "router/router.hpp"
#include "router/server.hpp"
#include "router/upstream.hpp"
#include "util/parse.hpp"
#include "util/port_file.hpp"

using namespace hsw;

namespace {

int usage(const char* argv0, int code) {
    std::FILE* out = code == 0 ? stdout : stderr;
    std::fprintf(
        out,
        "usage: %s --shard NAME=HOST:PORT [--shard ...] [options]\n"
        "\n"
        "Routes survey queries across a fleet of hsw_surveyd shards\n"
        "(consistent-hash placement, replica failover, fleet metrics).\n"
        "\n"
        "  --shard NAME=HOST:PORT  add a shard (repeat per shard; required)\n"
        "  --port P                listen port (default: 0 = kernel-assigned)\n"
        "  --port-file PATH        write the bound port to PATH (for port 0)\n"
        "  --bind ADDR             bind address (default: 127.0.0.1)\n"
        "  --replicas R            replica set size per key (default: 2)\n"
        "  --vnodes N              ring points per shard (default: 150)\n"
        "  --max-passes N          replica-set walks before Unavailable (default: 3)\n"
        "  --probe-interval-ms N   ejected-shard probe cadence, 0 = off (default: 250)\n"
        "  --connect-timeout-ms N  upstream dial timeout (default: 1000)\n"
        "  --upstream-timeout-ms N upstream per-call IO timeout (default: 10000)\n"
        "  --max-connections N     concurrent client connections (default: 128)\n"
        "  --trace-sample N        keep routing spans; N/1000 of untraced\n"
        "                          requests head-sampled into the access log\n"
        "  --access-log FILE       append one JSON line per routed request\n"
        "  --slow-us N             force-keep requests slower than N us\n"
        "  --flight-dir DIR        where flight-<pid>-<reason>.json dumps land\n"
        "                          (default: .); SIGQUIT and the crash\n"
        "                          handlers dump there\n"
        "  --quiet                 suppress startup / shutdown chatter\n",
        argv0);
    return code;
}

// "NAME=HOST:PORT" -> endpoint; nullopt on any malformed piece.
std::optional<router::ShardEndpoint> parse_shard(const std::string& spec) {
    const auto eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos || colon <= eq + 1) return std::nullopt;
    std::uint64_t port = 0;
    if (!util::parse_u64(spec.c_str() + colon + 1, port) || port > 65535 || port == 0) {
        return std::nullopt;
    }
    router::ShardEndpoint ep;
    ep.name = spec.substr(0, eq);
    ep.host = spec.substr(eq + 1, colon - eq - 1);
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<router::ShardEndpoint> shards;
    router::RouterConfig cfg;
    router::RouterServerConfig server_cfg;
    std::string port_file;
    std::string access_log_file;
    std::string flight_dir;
    std::uint64_t trace_sample_permille = 0;
    std::uint64_t slow_us = 0;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        std::uint64_t n = 0;
        if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
        if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--shard") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            auto ep = parse_shard(v);
            if (!ep) {
                std::fprintf(stderr, "%s: bad --shard '%s' (want NAME=HOST:PORT)\n",
                             argv[0], v);
                return 2;
            }
            shards.push_back(std::move(*ep));
        } else if (arg == "--port") {
            const char* v = value();
            if (!v || !util::parse_u64(v, n) || n > 65535) return usage(argv[0], 2);
            server_cfg.port = static_cast<std::uint16_t>(n);
        } else if (arg == "--port-file") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            port_file = v;
        } else if (arg == "--bind") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            server_cfg.bind_address = v;
        } else if (arg == "--replicas") {
            const char* v = value();
            if (!v || !util::parse_u64(v, n) || n > 64 || n == 0) {
                return usage(argv[0], 2);
            }
            cfg.fleet.replicas = static_cast<unsigned>(n);
        } else if (arg == "--vnodes") {
            const char* v = value();
            if (!v || !util::parse_u64(v, n) || n > 4096 || n == 0) {
                return usage(argv[0], 2);
            }
            cfg.fleet.vnodes = static_cast<unsigned>(n);
        } else if (arg == "--max-passes") {
            const char* v = value();
            if (!v || !util::parse_u64(v, n) || n > 100 || n == 0) {
                return usage(argv[0], 2);
            }
            cfg.max_passes = static_cast<unsigned>(n);
        } else if (arg == "--probe-interval-ms") {
            const char* v = value();
            if (!v || !util::parse_u64(v, n) || n > (1u << 30)) return usage(argv[0], 2);
            cfg.probe_interval = std::chrono::milliseconds{n};
        } else if (arg == "--connect-timeout-ms") {
            const char* v = value();
            if (!v || !util::parse_u64(v, n) || n > (1u << 30) || n == 0) {
                return usage(argv[0], 2);
            }
            cfg.transport.connect_timeout = std::chrono::milliseconds{n};
        } else if (arg == "--upstream-timeout-ms") {
            const char* v = value();
            if (!v || !util::parse_u64(v, n) || n > (1u << 30) || n == 0) {
                return usage(argv[0], 2);
            }
            cfg.transport.io_timeout = std::chrono::milliseconds{n};
        } else if (arg == "--max-connections") {
            const char* v = value();
            if (!v || !util::parse_u64(v, n) || n > (1u << 16) || n == 0) {
                return usage(argv[0], 2);
            }
            server_cfg.max_connections = static_cast<unsigned>(n);
        } else if (arg == "--trace-sample") {
            const char* v = value();
            if (!v || !util::parse_u64(v, trace_sample_permille) ||
                trace_sample_permille > 1000) {
                return usage(argv[0], 2);
            }
        } else if (arg == "--access-log") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            access_log_file = v;
        } else if (arg == "--slow-us") {
            const char* v = value();
            if (!v || !util::parse_u64(v, slow_us) || slow_us > (1ul << 40)) {
                return usage(argv[0], 2);
            }
        } else if (arg == "--flight-dir") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            flight_dir = v;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg.c_str());
            return usage(argv[0], 2);
        }
    }
    if (shards.empty()) {
        std::fprintf(stderr, "%s: at least one --shard is required\n", argv[0]);
        return usage(argv[0], 2);
    }

    // The router's own counters ride the same registry the fleet scrape
    // merges in (pseudo-shard "router").
    obs::set_metrics_enabled(true);
    if (trace_sample_permille > 0) obs::trace::enable();
    obs::accesslog::set_policy(
        static_cast<double>(trace_sample_permille) / 1000.0, slow_us);
    obs::accesslog::set_identity("router");
    if (!access_log_file.empty()) obs::accesslog::set_enabled(true);

    obs::flight::Config flight_cfg;
    if (!flight_dir.empty()) flight_cfg.dir = flight_dir;
    flight_cfg.process = "router";
    obs::flight::configure(flight_cfg);
    obs::flight::install_crash_handlers();

    obs::accesslog::Writer access_log_writer;
    if (!access_log_file.empty() &&
        !access_log_writer.start(access_log_file)) {
        std::fprintf(stderr, "hsw_router: cannot open access log %s\n",
                     access_log_file.c_str());
        return 1;
    }

    sigset_t stop_signals;
    sigemptyset(&stop_signals);
    sigaddset(&stop_signals, SIGINT);
    sigaddset(&stop_signals, SIGTERM);
    sigaddset(&stop_signals, SIGQUIT);
    pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

    router::TcpTransport transport;
    std::optional<router::Router> rtr;
    std::optional<router::RouterServer> server;
    try {
        rtr.emplace(router::FleetMap{std::move(shards), cfg.fleet}, transport,
                    cfg);
        server.emplace(*rtr, server_cfg);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hsw_router: %s\n", e.what());
        return 1;
    }
    server->start();

    if (!port_file.empty() &&
        !util::write_port_file(port_file, server->port())) {
        std::fprintf(stderr, "hsw_router: cannot write %s\n", port_file.c_str());
        server->stop();
        return 1;
    }
    if (!quiet) {
        std::fprintf(stderr,
                     "hsw_router: listening on %s:%u (%zu shards, %u replicas, "
                     "%u vnodes/shard)\n",
                     server_cfg.bind_address.c_str(),
                     static_cast<unsigned>(server->port()),
                     rtr->fleet().shards().size(), rtr->fleet().replicas(),
                     cfg.fleet.vnodes);
    }

    while (!server->stopped()) {
        timespec tick{0, 200 * 1000 * 1000};
        const int sig = sigtimedwait(&stop_signals, nullptr, &tick);
        if (sig == SIGQUIT) {
            const std::string path = obs::flight::dump("sigquit");
            if (!quiet) {
                std::fprintf(stderr, "hsw_router: SIGQUIT, flight dump %s, draining\n",
                             path.empty() ? "FAILED" : path.c_str());
            }
            server->stop();
            break;
        }
        if (sig == SIGINT || sig == SIGTERM) {
            if (!quiet) {
                std::fprintf(stderr, "hsw_router: %s, draining\n",
                             sig == SIGINT ? "SIGINT" : "SIGTERM");
            }
            server->stop();
            break;
        }
    }
    server->wait();
    rtr->stop();
    access_log_writer.stop();
    if (!port_file.empty()) util::remove_port_file(port_file);

    if (!quiet) {
        std::fputs(rtr->stats().render().c_str(), stderr);
        std::fprintf(stderr, "hsw_router: stopped\n");
    }
    return 0;
}
