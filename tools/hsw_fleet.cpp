// hsw_fleet: one-command local fleet -- N hsw_surveyd shards behind a
// router, all on loopback.
//
//   hsw_fleet --shards 4 --port 7700
//
// forks one hsw_surveyd per shard (kernel-assigned ports, separate disk
// caches and port/pid files under --state-dir), waits for every shard to
// publish its port, then runs the router *in-process* on --port. Clients
// talk to the router exactly as they would to a single daemon:
//
//   hsw_query --port 7700 --experiment turbo_residency --all
//
// SIGINT/SIGTERM (or hsw_query --shutdown) stops the router, SIGTERMs
// every shard, and reaps them before exit. A shard that dies mid-run is
// logged but NOT fatal: the router fails its keys over to replicas,
// which is the failure mode the fleet exists to absorb (and what the CI
// fleet-smoke job exercises by killing a shard under load).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
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
        "usage: %s [options]\n"
        "\n"
        "Launches N hsw_surveyd shards plus a router front door on one\n"
        "machine. Point hsw_query / hsw_top at the router port.\n"
        "\n"
        "  --shards N           shard daemons to launch (default: 2)\n"
        "  --port P             router listen port (default: 0 = kernel)\n"
        "  --port-file PATH     write the router's bound port to PATH\n"
        "  --bind ADDR          router bind address (default: 127.0.0.1)\n"
        "  --replicas R         replica set size per key (default: 2)\n"
        "  --vnodes N           ring points per shard (default: 150)\n"
        "  --workers N          compute workers per shard (default: 2)\n"
        "  --hot-cache-mb N     hot cache budget per shard (default: 64)\n"
        "  --state-dir DIR      port/pid/cache files root (default: .hsw-fleet)\n"
        "  --surveyd PATH       shard binary (default: hsw_surveyd next to %s)\n"
        "  --trace-sample N     enable span tracing fleet-wide; N/1000 of\n"
        "                       untraced requests head-sampled (default: 0)\n"
        "  --access-log         per-process JSON access logs under the state\n"
        "                       dir (router.access.jsonl, shardN.access.jsonl)\n"
        "  --quiet              suppress startup / shutdown chatter\n"
        "\n"
        "Every process dumps flight-<pid>-<reason>.json into the state dir on\n"
        "SIGQUIT or a crash; dumps from dead shards are preserved and logged\n"
        "when the shard is reaped.\n",
        argv0, argv0);
    return code;
}

struct ShardProc {
    pid_t pid = -1;
    std::string name;
    std::string port_path;
    std::string pid_path;
    bool reaped = false;
};

// A reaped shard may have left flight-<pid>-*.json behind (SIGQUIT, crash
// handler). The launcher never deletes them; it reports them so a CI run
// (or a human) knows the evidence survived the process.
void report_flight_dumps(const std::string& state_dir, const ShardProc& shard,
                         bool quiet) {
    if (quiet) return;
    const std::string prefix = "flight-" + std::to_string(shard.pid) + "-";
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator{state_dir, ec}) {
        const std::string file = entry.path().filename().string();
        if (file.rfind(prefix, 0) == 0) {
            std::fprintf(stderr, "hsw_fleet: preserved flight dump %s from %s\n",
                         entry.path().string().c_str(), shard.name.c_str());
        }
    }
}

// Fork+exec one shard daemon publishing its port to `port_path`.
pid_t spawn_shard(const std::string& surveyd, const ShardProc& shard,
                  const std::string& cache_dir, unsigned workers,
                  unsigned long hot_cache_mb, const std::string& state_dir,
                  unsigned long trace_sample, bool access_log) {
    std::vector<std::string> args = {
        surveyd,        "--quiet",
        "--port",       "0",
        "--port-file",  shard.port_path,
        "--cache",      cache_dir,
        "--workers",    std::to_string(workers),
        "--hot-cache-mb", std::to_string(hot_cache_mb),
        // Observability identity + flight dumps land in the state dir,
        // where the launcher preserves them past the shard's death.
        "--name",       shard.name,
        "--flight-dir", state_dir,
    };
    if (trace_sample > 0) {
        args.push_back("--trace-sample");
        args.push_back(std::to_string(trace_sample));
    }
    if (access_log) {
        args.push_back("--access-log");
        args.push_back(state_dir + "/" + shard.name + ".access.jsonl");
    }
    const pid_t pid = fork();
    if (pid != 0) return pid;  // parent (or fork failure, -1)

    // Child: restore default signal dispositions/mask before exec so the
    // daemon's own sigtimedwait loop starts from a clean slate.
    sigset_t none;
    sigemptyset(&none);
    pthread_sigmask(SIG_SETMASK, &none, nullptr);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(surveyd.c_str(), argv.data());
    std::fprintf(stderr, "hsw_fleet: exec %s: %s\n", surveyd.c_str(),
                 std::strerror(errno));
    _exit(127);
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t shard_count = 2;
    std::uint64_t workers = 2;
    std::uint64_t hot_cache_mb = 64;
    std::string state_dir = ".hsw-fleet";
    std::string surveyd;
    std::string port_file;
    router::RouterConfig cfg;
    router::RouterServerConfig server_cfg;
    std::uint64_t trace_sample_permille = 0;
    bool access_log = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        std::uint64_t n = 0;
        if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
        if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--shards") {
            const char* v = value();
            if (!v || !util::parse_u64(v, shard_count) || shard_count > 64 ||
                shard_count == 0) {
                return usage(argv[0], 2);
            }
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
        } else if (arg == "--workers") {
            const char* v = value();
            if (!v || !util::parse_u64(v, workers) || workers > 1024 || workers == 0) {
                return usage(argv[0], 2);
            }
        } else if (arg == "--hot-cache-mb") {
            const char* v = value();
            if (!v || !util::parse_u64(v, hot_cache_mb) || hot_cache_mb > 4096) {
                return usage(argv[0], 2);
            }
        } else if (arg == "--state-dir") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            state_dir = v;
        } else if (arg == "--surveyd") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            surveyd = v;
        } else if (arg == "--trace-sample") {
            const char* v = value();
            if (!v || !util::parse_u64(v, trace_sample_permille) ||
                trace_sample_permille > 1000) {
                return usage(argv[0], 2);
            }
        } else if (arg == "--access-log") {
            access_log = true;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg.c_str());
            return usage(argv[0], 2);
        }
    }

    if (surveyd.empty()) {
        // Sibling binary: hsw_fleet and hsw_surveyd install side by side.
        const auto self = std::filesystem::path{argv[0]};
        surveyd = (self.parent_path() / "hsw_surveyd").string();
        if (self.parent_path().empty()) surveyd = "hsw_surveyd";
    }

    std::error_code ec;
    std::filesystem::create_directories(state_dir, ec);
    if (ec) {
        std::fprintf(stderr, "hsw_fleet: cannot create %s: %s\n",
                     state_dir.c_str(), ec.message().c_str());
        return 1;
    }

    obs::set_metrics_enabled(true);
    if (trace_sample_permille > 0) obs::trace::enable();
    obs::accesslog::set_policy(
        static_cast<double>(trace_sample_permille) / 1000.0, 0);
    obs::accesslog::set_identity("router");
    if (access_log) obs::accesslog::set_enabled(true);

    obs::flight::Config flight_cfg;
    flight_cfg.dir = state_dir;
    flight_cfg.process = "router";
    obs::flight::configure(flight_cfg);
    obs::flight::install_crash_handlers();

    obs::accesslog::Writer access_log_writer;
    if (access_log &&
        !access_log_writer.start(state_dir + "/router.access.jsonl")) {
        std::fprintf(stderr, "hsw_fleet: cannot open %s/router.access.jsonl\n",
                     state_dir.c_str());
        return 1;
    }

    // Block stop signals before forking so a ^C during startup still runs
    // the teardown path. The mask is inherited across exec, which is why
    // spawn_shard resets it in the child before handing off to surveyd.
    sigset_t stop_signals;
    sigemptyset(&stop_signals);
    sigaddset(&stop_signals, SIGINT);
    sigaddset(&stop_signals, SIGTERM);
    sigaddset(&stop_signals, SIGQUIT);
    pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

    std::vector<ShardProc> procs(shard_count);
    for (unsigned long i = 0; i < shard_count; ++i) {
        auto& p = procs[i];
        p.name = "shard" + std::to_string(i);
        p.port_path = state_dir + "/" + p.name + ".port";
        p.pid_path = state_dir + "/" + p.name + ".pid";
        util::remove_port_file(p.port_path);  // never read a stale port
        const std::string cache_dir = state_dir + "/" + p.name + ".cache";
        p.pid = spawn_shard(surveyd, p, cache_dir, static_cast<unsigned>(workers),
                            hot_cache_mb, state_dir, trace_sample_permille,
                            access_log);
        if (p.pid < 0) {
            std::fprintf(stderr, "hsw_fleet: fork: %s\n", std::strerror(errno));
            break;
        }
        if (std::FILE* f = std::fopen(p.pid_path.c_str(), "w")) {
            std::fprintf(f, "%ld\n", static_cast<long>(p.pid));
            std::fclose(f);
        }
    }

    // Normal teardown SIGTERMs the shards; a SIGQUIT teardown forwards
    // SIGQUIT instead so every shard writes its flight dump before
    // draining. Dumps are never cleaned up here -- they are the point.
    auto teardown = [&](int shard_signal) {
        for (auto& p : procs) {
            if (p.pid > 0 && !p.reaped) kill(p.pid, shard_signal);
        }
        for (auto& p : procs) {
            if (p.pid > 0 && !p.reaped) {
                int status = 0;
                waitpid(p.pid, &status, 0);
                p.reaped = true;
                report_flight_dumps(state_dir, p, quiet);
            }
            if (!p.pid_path.empty()) std::remove(p.pid_path.c_str());
        }
    };

    // Collect every shard's published port; a shard that never publishes
    // (exec failed, crashed at startup) aborts the launch.
    std::vector<router::ShardEndpoint> endpoints;
    for (auto& p : procs) {
        if (p.pid <= 0) {
            teardown(SIGTERM);
            return 1;
        }
        const auto port = util::read_port_file(p.port_path);
        if (!port) {
            std::fprintf(stderr, "hsw_fleet: %s never published %s\n",
                         p.name.c_str(), p.port_path.c_str());
            teardown(SIGTERM);
            return 1;
        }
        endpoints.push_back({p.name, "127.0.0.1", *port});
    }

    router::TcpTransport transport;
    std::optional<router::Router> rtr;
    std::optional<router::RouterServer> server;
    try {
        rtr.emplace(router::FleetMap{std::move(endpoints), cfg.fleet},
                    transport, cfg);
        server.emplace(*rtr, server_cfg);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hsw_fleet: %s\n", e.what());
        teardown(SIGTERM);
        return 1;
    }
    server->start();

    if (!port_file.empty() &&
        !util::write_port_file(port_file, server->port())) {
        std::fprintf(stderr, "hsw_fleet: cannot write %s\n", port_file.c_str());
        server->stop();
        server->wait();
        rtr->stop();
        teardown(SIGTERM);
        return 1;
    }
    if (!quiet) {
        std::fprintf(stderr,
                     "hsw_fleet: router on %s:%u, %lu shards (%u replicas):\n",
                     server_cfg.bind_address.c_str(),
                     static_cast<unsigned>(server->port()), shard_count,
                     rtr->fleet().replicas());
        for (const auto& ep : rtr->fleet().shards()) {
            std::fprintf(stderr, "hsw_fleet:   %s -> %s\n", ep.name.c_str(),
                         ep.address().c_str());
        }
    }

    int teardown_signal = SIGTERM;
    while (!server->stopped()) {
        timespec tick{0, 200 * 1000 * 1000};
        const int sig = sigtimedwait(&stop_signals, nullptr, &tick);
        if (sig == SIGQUIT) {
            // Flight-dump teardown: the router dumps here, the shards dump
            // when the forwarded SIGQUIT reaches them in teardown().
            const std::string path = obs::flight::dump("sigquit");
            if (!quiet) {
                std::fprintf(stderr,
                             "hsw_fleet: SIGQUIT, flight dump %s, stopping fleet\n",
                             path.empty() ? "FAILED" : path.c_str());
            }
            teardown_signal = SIGQUIT;
            server->stop();
            break;
        }
        if (sig == SIGINT || sig == SIGTERM) {
            if (!quiet) {
                std::fprintf(stderr, "hsw_fleet: %s, stopping fleet\n",
                             sig == SIGINT ? "SIGINT" : "SIGTERM");
            }
            server->stop();
            break;
        }
        // Notice (but survive) shard deaths: the router fails their keys
        // over to replicas; a restarted launcher gets a clean slate.
        for (auto& p : procs) {
            if (p.pid <= 0 || p.reaped) continue;
            int status = 0;
            if (waitpid(p.pid, &status, WNOHANG) == p.pid) {
                p.reaped = true;
                if (!quiet) {
                    std::fprintf(stderr, "hsw_fleet: %s (pid %ld) exited\n",
                                 p.name.c_str(), static_cast<long>(p.pid));
                }
                report_flight_dumps(state_dir, p, quiet);
            }
        }
    }
    server->wait();
    rtr->stop();
    teardown(teardown_signal);
    access_log_writer.stop();
    if (!port_file.empty()) util::remove_port_file(port_file);

    if (!quiet) {
        std::fputs(rtr->stats().render().c_str(), stderr);
        std::fprintf(stderr, "hsw_fleet: stopped\n");
    }
    return 0;
}
