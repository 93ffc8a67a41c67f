// hsw_surveyd: long-lived survey query daemon.
//
//   hsw_surveyd --port 7788 --workers 8 --cache .hsw-cache
//
// binds a loopback TCP socket and serves experiment queries through
// SurveyService: identical in-flight queries coalesce into one
// computation, repeat queries hit the sharded in-memory hot cache, and an
// overloaded service answers with structured rejections instead of
// stalling. Stop it with the protocol `shutdown` verb (hsw_query
// --shutdown) or SIGINT/SIGTERM; either way in-flight work drains before
// exit and the final stats block is printed to stderr. SIGQUIT first
// writes a flight-recorder dump (trace rings + metrics + access-log tail)
// and then drains like SIGTERM; SIGSEGV/SIGABRT attempt the same dump on
// a best-effort basis before the process dies.
#include <signal.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "obs/accesslog.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/server.hpp"
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
        "Serves survey experiment queries over a loopback TCP socket (see\n"
        "hsw_query for the matching client).\n"
        "\n"
        "  --port P             listen port (default: 0 = kernel-assigned)\n"
        "  --port-file PATH     write the bound port to PATH (for port 0)\n"
        "  --bind ADDR          bind address (default: 127.0.0.1)\n"
        "  --workers N          compute worker threads (default: 4)\n"
        "  --queue N            pending-job bound before Overloaded (default: 64)\n"
        "  --hot-cache-mb N     in-memory hot cache budget, 0 disables (default: 64)\n"
        "  --cache DIR          on-disk result cache (default: .hsw-cache)\n"
        "  --no-disk-cache      in-memory caching only\n"
        "  --max-connections N  concurrent client connections (default: 64)\n"
        "  --deadline-ms N      default per-request deadline, 0 = none (default: 0)\n"
        "  --trace FILE         capture span tracing; write Chrome trace-event\n"
        "                       JSON to FILE on shutdown (open in Perfetto)\n"
        "  --trace-sample N     keep spans for queries; N/1000 of untraced\n"
        "                       requests head-sampled into the access log\n"
        "                       (default: 0 = follow the client's decision)\n"
        "  --access-log FILE    append one JSON line per kept request to FILE\n"
        "  --slow-us N          force-keep requests slower than N us (default:\n"
        "                       0 = off)\n"
        "  --name NAME          identity stamped into access-log records and\n"
        "                       flight dumps (default: surveyd:<port>)\n"
        "  --flight-dir DIR     where flight-<pid>-<reason>.json dumps land\n"
        "                       (default: .); also enables a dump on graceful\n"
        "                       shutdown when given explicitly\n"
        "  --quiet              suppress startup / shutdown chatter\n",
        argv0);
    return code;
}

}  // namespace

int main(int argc, char** argv) {
    service::ServerConfig cfg;
    cfg.service.disk_cache_dir = ".hsw-cache";
    std::string port_file;
    std::string trace_file;
    std::string access_log_file;
    std::string name;
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
        } else if (arg == "--no-disk-cache") {
            cfg.service.disk_cache_dir.reset();
        } else if (arg == "--port") {
            const char* v = value();
            if (!v || !util::parse_u64(v, n) || n > 65535) return usage(argv[0], 2);
            cfg.port = static_cast<std::uint16_t>(n);
        } else if (arg == "--port-file") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            port_file = v;
        } else if (arg == "--bind") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            cfg.bind_address = v;
        } else if (arg == "--workers") {
            const char* v = value();
            if (!v || !util::parse_u64(v, n) || n > 1024 || n == 0) {
                return usage(argv[0], 2);
            }
            cfg.service.workers = static_cast<unsigned>(n);
        } else if (arg == "--queue") {
            const char* v = value();
            if (!v || !util::parse_u64(v, n) || n > (1u << 20) || n == 0) {
                return usage(argv[0], 2);
            }
            cfg.service.max_queue = n;
        } else if (arg == "--hot-cache-mb") {
            const char* v = value();
            if (!v || !util::parse_u64(v, n) || n > 4096) return usage(argv[0], 2);
            cfg.service.hot_cache.max_bytes = n << 20;
        } else if (arg == "--cache") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            cfg.service.disk_cache_dir = v;
        } else if (arg == "--max-connections") {
            const char* v = value();
            if (!v || !util::parse_u64(v, n) || n > (1u << 16) || n == 0) {
                return usage(argv[0], 2);
            }
            cfg.max_connections = static_cast<unsigned>(n);
        } else if (arg == "--deadline-ms") {
            const char* v = value();
            if (!v || !util::parse_u64(v, n) || n > (1u << 30)) return usage(argv[0], 2);
            cfg.service.default_deadline = std::chrono::milliseconds{n};
        } else if (arg == "--trace") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            trace_file = v;
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
        } else if (arg == "--name") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            name = v;
        } else if (arg == "--flight-dir") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            flight_dir = v;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg.c_str());
            return usage(argv[0], 2);
        }
    }

    // The daemon always serves the metrics verb; spans are captured when
    // --trace asks for a shutdown file or --trace-sample turns the ring on
    // for the trace_dump verb.
    obs::set_metrics_enabled(true);
    if (!trace_file.empty() || trace_sample_permille > 0) obs::trace::enable();
    obs::accesslog::set_policy(
        static_cast<double>(trace_sample_permille) / 1000.0, slow_us);
    if (!access_log_file.empty()) obs::accesslog::set_enabled(true);

    // Flight recorder: graceful shutdown, the `dump` verb and the crash
    // handlers all share this configuration (and the same atomic writer).
    obs::flight::Config flight_cfg;
    if (!flight_dir.empty()) flight_cfg.dir = flight_dir;
    flight_cfg.process = name.empty() ? "surveyd" : name;
    obs::flight::configure(flight_cfg);
    obs::flight::install_crash_handlers();

    // Handle SIGINT/SIGTERM/SIGQUIT synchronously via sigtimedwait: a
    // plain handler could not safely call stop() (mutexes, condvars).
    sigset_t stop_signals;
    sigemptyset(&stop_signals);
    sigaddset(&stop_signals, SIGINT);
    sigaddset(&stop_signals, SIGTERM);
    sigaddset(&stop_signals, SIGQUIT);
    pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

    std::optional<service::SurveyServer> server;
    try {
        server.emplace(cfg);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hsw_surveyd: %s\n", e.what());
        return 1;
    }

    obs::accesslog::set_identity(
        name.empty() ? "surveyd:" + std::to_string(server->port()) : name);
    obs::accesslog::Writer access_log_writer;
    if (!access_log_file.empty() &&
        !access_log_writer.start(access_log_file)) {
        std::fprintf(stderr, "hsw_surveyd: cannot open access log %s\n",
                     access_log_file.c_str());
        return 1;
    }

    server->start();

    if (!port_file.empty()) {
        // Atomic publish (tmp + rename) so a polling client never reads a
        // half-written port number; removed again on graceful shutdown so
        // a fleet launcher can never dial a dead daemon's stale port.
        if (!util::write_port_file(port_file, server->port())) {
            std::fprintf(stderr, "hsw_surveyd: cannot write %s\n",
                         port_file.c_str());
            server->stop();
            return 1;
        }
    }
    if (!quiet) {
        std::fprintf(stderr,
                     "hsw_surveyd: listening on %s:%u (%u workers, queue %zu, "
                     "hot cache %zu MiB, disk cache %s)\n",
                     cfg.bind_address.c_str(), static_cast<unsigned>(server->port()),
                     cfg.service.workers, cfg.service.max_queue,
                     cfg.service.hot_cache.max_bytes >> 20,
                     cfg.service.disk_cache_dir
                         ? cfg.service.disk_cache_dir->string().c_str()
                         : "off");
    }

    // Wake every 200 ms to notice a protocol-driven shutdown; otherwise
    // park in sigtimedwait until SIGINT/SIGTERM/SIGQUIT.
    bool dumped_on_signal = false;
    while (!server->stopped()) {
        timespec tick{0, 200 * 1000 * 1000};
        const int sig = sigtimedwait(&stop_signals, nullptr, &tick);
        if (sig == SIGQUIT) {
            // Dump first, while the in-flight load is still visible in the
            // trace ring and metrics; then drain like SIGTERM.
            const std::string path = obs::flight::dump("sigquit");
            dumped_on_signal = !path.empty();
            if (!quiet) {
                std::fprintf(stderr, "hsw_surveyd: SIGQUIT, flight dump %s, draining\n",
                             path.empty() ? "FAILED" : path.c_str());
            }
            server->stop();
            break;
        }
        if (sig == SIGINT || sig == SIGTERM) {
            if (!quiet) {
                std::fprintf(stderr, "hsw_surveyd: %s, draining\n",
                             sig == SIGINT ? "SIGINT" : "SIGTERM");
            }
            server->stop();
            break;
        }
    }
    server->wait();
    access_log_writer.stop();  // final drain: graceful shutdown loses nothing
    if (!port_file.empty()) util::remove_port_file(port_file);

    // Graceful-shutdown snapshot rides the same dump path as the crash
    // handlers when a flight directory was asked for explicitly.
    if (!flight_dir.empty() && !dumped_on_signal) {
        const std::string path = obs::flight::dump("shutdown");
        if (!quiet && !path.empty()) {
            std::fprintf(stderr, "hsw_surveyd: flight dump %s\n", path.c_str());
        }
    }

    // A short-lived daemon run should leave a usable record: the final
    // ServiceStats block plus the full metrics snapshot, then the trace.
    if (!quiet) {
        std::fputs(server->service().stats().render().c_str(), stderr);
        std::fputs(obs::render_prometheus().c_str(), stderr);
    }
    if (!trace_file.empty()) {
        obs::trace::disable();
        if (!obs::trace::write_chrome_json(trace_file)) {
            std::fprintf(stderr, "hsw_surveyd: cannot write trace %s\n",
                         trace_file.c_str());
            return 1;
        }
        if (!quiet) {
            std::fprintf(stderr, "hsw_surveyd: wrote %zu trace events to %s\n",
                         obs::trace::recorded_events(), trace_file.c_str());
        }
    }
    if (!quiet) std::fprintf(stderr, "hsw_surveyd: stopped\n");
    return 0;
}
