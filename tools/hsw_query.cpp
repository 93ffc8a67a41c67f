// hsw_query: client and load generator for hsw_surveyd.
//
//   hsw_query --port-file /tmp/port --experiment fig3 --out csv/
//   hsw_query --port 7788 --bench --threads 16 --requests 200
//             --duplicate-ratio 0.8 --mix fig3,fig7,table3
//   hsw_query --port 7788 --stats
//   hsw_query --port 7788 --shutdown
//
// A plain query fetches one experiment (or one named sweep point) and
// writes the artifacts; --bench replays a deterministic request mix from N
// client threads and reports requests/s plus p50/p99 latency. The
// duplicate ratio controls how many requests share a spec (and therefore
// exercise the daemon's coalescing and hot cache) versus carrying a unique
// seed (forcing a fresh computation).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/blob.hpp"
#include "obs/ctx.hpp"
#include "obs/trace.hpp"
#include "service/server.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"
#include "util/port_file.hpp"
#include "util/stats.hpp"

using namespace hsw;

namespace {

int usage(const char* argv0, int code) {
    std::FILE* out = code == 0 ? stdout : stderr;
    std::fprintf(
        out,
        "usage: %s [options]\n"
        "\n"
        "Queries a running hsw_surveyd (see --port / --port-file).\n"
        "\n"
        "connection:\n"
        "  --host ADDR          daemon address (default: 127.0.0.1)\n"
        "  --port P             daemon port\n"
        "  --port-file PATH     read the port from PATH (polls up to 5 s)\n"
        "  --retries N          retry a refused connect or failed request up\n"
        "                       to N times with exponential backoff + jitter\n"
        "                       (default: 0 = fail immediately)\n"
        "\n"
        "single query:\n"
        "  --experiment NAME    experiment to fetch (e.g. fig3)\n"
        "  --point NAME         one sweep point instead of the whole\n"
        "                       experiment; raw payload blob to stdout\n"
        "  --out DIR            artifact directory (default: .)\n"
        "  --renders            also write the rendered .txt tables\n"
        "  --quick              reduced-sampling tuning (must match daemon use)\n"
        "  --seed S             base seed, decimal or 0x-hex (default: 0xC0FFEE)\n"
        "  --audit MODE         off | warn | strict (default: off)\n"
        "  --deadline-ms N      per-request deadline, 0 = none (default: 0)\n"
        "\n"
        "load generation:\n"
        "  --bench              run the load generator instead of one query\n"
        "  --threads N          concurrent client connections (default: 4)\n"
        "  --requests M         total requests across all threads (default: 64)\n"
        "  --duplicate-ratio R  fraction of requests sharing the base seed,\n"
        "                       0..1 (default: 0.5); the rest get unique seeds\n"
        "  --mix LIST           comma-separated experiments to rotate through\n"
        "                       (default: fig3)\n"
        "  --pipeline N         send N requests per batch frame\n"
        "                       (default 1 = one request per round-trip)\n"
        "\n"
        "tracing:\n"
        "  --trace              originate a sampled trace context for every\n"
        "                       request (the daemons keep the matching spans\n"
        "                       for hsw_trace / trace_dump)\n"
        "  --trace-sample N     originate contexts but head-sample only\n"
        "                       N/1000 of them (default with --trace: 1000)\n"
        "  --trace-out FILE     also record this client's own spans and write\n"
        "                       Chrome trace-event JSON to FILE on exit\n"
        "\n"
        "control verbs:\n"
        "  --ping               round-trip check\n"
        "  --stats              print the daemon's stats block\n"
        "  --metrics [FORMAT]   scrape the metrics registry; FORMAT is\n"
        "                       prometheus (default) or json\n"
        "  --shutdown           drain and stop the daemon\n",
        argv0);
    return code;
}

bool parse_unsigned(const char* text, unsigned long& out, unsigned long max) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0' || v > max) return false;
    out = v;
    return true;
}

/// Retrying protocol client: reconnects and re-sends on transport errors,
/// with exponential backoff + deterministic jitter between attempts.
/// Queries are idempotent (content-addressed results), so re-sending a
/// request whose response was lost is always safe.
class RetryingClient {
public:
    RetryingClient(std::string host, std::uint16_t port, unsigned retries)
        : host_{std::move(host)}, port_{port}, retries_{retries} {}

    [[nodiscard]] service::protocol::Response call(
        const service::protocol::Request& request) {
        for (unsigned attempt = 0;; ++attempt) {
            try {
                if (!client_) client_.emplace(host_, port_);
                return client_->call(request);
            } catch (const std::exception&) {
                client_.reset();  // stale stream: reconnect on next attempt
                if (attempt >= retries_) throw;
                std::this_thread::sleep_for(backoff(attempt));
            }
        }
    }

    /// Pipelined window with the same reconnect/backoff policy; the whole
    /// window is re-sent on a transport error (idempotent queries).
    [[nodiscard]] std::vector<service::protocol::Response> call_pipelined(
        const std::vector<service::protocol::Request>& window) {
        for (unsigned attempt = 0;; ++attempt) {
            try {
                if (!client_) client_.emplace(host_, port_);
                return client_->call_pipelined(window);
            } catch (const std::exception&) {
                client_.reset();
                if (attempt >= retries_) throw;
                std::this_thread::sleep_for(backoff(attempt));
            }
        }
    }

private:
    [[nodiscard]] std::chrono::milliseconds backoff(unsigned attempt) {
        // 50ms, 100ms, 200ms, ... capped at 2s, plus jitter in [0, 50ms)
        // from a splitmix64 walk so colliding clients desynchronize.
        const std::uint64_t draw = util::mix64(jitter_state_++);
        const long long exp = 50LL << (attempt < 6 ? attempt : 6);
        return std::chrono::milliseconds{
            std::min<long long>(exp, 2000) + static_cast<long long>(draw % 50)};
    }

    std::string host_;
    std::uint16_t port_;
    unsigned retries_;
    std::uint64_t jitter_state_ = 0x5EED;
    std::optional<service::ServiceClient> client_;
};

std::vector<std::string> split_commas(const std::string& list) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::size_t end = comma == std::string::npos ? list.size() : comma;
        if (end > start) out.push_back(list.substr(start, end - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return out;
}

bool write_file(const std::filesystem::path& path, std::string_view bytes) {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

struct BenchSlice {
    std::vector<double> latencies_ms;
    std::uint64_t ok = 0;
    std::uint64_t rejected = 0;
    std::uint64_t hot = 0, disk = 0, computed = 0;
    double wall_s = 0;  // this client's own elapsed time
    std::string first_error;
};

}  // namespace

int main(int argc, char** argv) {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::string port_file;
    std::string out_dir = ".";
    bool renders = false;
    bool bench = false;
    bool ping = false, stats = false, shutdown = false, metrics = false;
    service::protocol::MetricsFormat metrics_format =
        service::protocol::MetricsFormat::Prometheus;
    unsigned threads = 4;
    unsigned retries = 0;
    unsigned pipeline = 1;
    unsigned long requests = 64;
    double duplicate_ratio = 0.5;
    std::vector<std::string> mix;
    bool trace = false;
    unsigned long trace_sample_permille = 1000;
    std::string trace_out;

    service::protocol::Request request;
    request.verb = service::protocol::Verb::Query;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        unsigned long n = 0;
        if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
        if (arg == "--renders") {
            renders = true;
        } else if (arg == "--quick") {
            request.quick = true;
        } else if (arg == "--bench") {
            bench = true;
        } else if (arg == "--ping") {
            ping = true;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--metrics") {
            metrics = true;
            // Optional format operand; anything else is the next option.
            if (i + 1 < argc && argv[i + 1][0] != '-') {
                const std::string fmt = argv[++i];
                if (fmt == "prometheus") {
                    metrics_format = service::protocol::MetricsFormat::Prometheus;
                } else if (fmt == "json") {
                    metrics_format = service::protocol::MetricsFormat::Json;
                } else {
                    return usage(argv[0], 2);
                }
            }
        } else if (arg == "--shutdown") {
            shutdown = true;
        } else if (arg == "--host") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            host = v;
        } else if (arg == "--port") {
            const char* v = value();
            if (!v || !parse_unsigned(v, n, 65535) || n == 0) return usage(argv[0], 2);
            port = static_cast<std::uint16_t>(n);
        } else if (arg == "--port-file") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            port_file = v;
        } else if (arg == "--experiment") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            request.experiment = v;
        } else if (arg == "--point") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            request.point = v;
        } else if (arg == "--out") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            out_dir = v;
        } else if (arg == "--seed") {
            const char* v = value();
            if (!v || !util::parse_u64(v, request.seed)) return usage(argv[0], 2);
        } else if (arg == "--audit") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            if (std::strcmp(v, "off") == 0) {
                request.audit = analysis::AuditMode::Off;
            } else if (std::strcmp(v, "warn") == 0) {
                request.audit = analysis::AuditMode::Warn;
            } else if (std::strcmp(v, "strict") == 0) {
                request.audit = analysis::AuditMode::Strict;
            } else {
                return usage(argv[0], 2);
            }
        } else if (arg == "--deadline-ms") {
            const char* v = value();
            if (!v || !parse_unsigned(v, n, 1u << 30)) return usage(argv[0], 2);
            request.deadline_ms = static_cast<std::uint32_t>(n);
        } else if (arg == "--retries") {
            const char* v = value();
            if (!v || !parse_unsigned(v, n, 100)) return usage(argv[0], 2);
            retries = static_cast<unsigned>(n);
        } else if (arg == "--threads") {
            const char* v = value();
            if (!v || !parse_unsigned(v, n, 256) || n == 0) return usage(argv[0], 2);
            threads = static_cast<unsigned>(n);
        } else if (arg == "--pipeline") {
            const char* v = value();
            if (!v || !parse_unsigned(v, n, service::protocol::kMaxBatchRequests) ||
                n == 0) {
                return usage(argv[0], 2);
            }
            pipeline = static_cast<unsigned>(n);
        } else if (arg == "--requests") {
            const char* v = value();
            if (!v || !parse_unsigned(v, requests, 1u << 20) || requests == 0) {
                return usage(argv[0], 2);
            }
        } else if (arg == "--duplicate-ratio") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            char* end = nullptr;
            duplicate_ratio = std::strtod(v, &end);
            if (end == v || *end != '\0' || duplicate_ratio < 0.0 ||
                duplicate_ratio > 1.0) {
                return usage(argv[0], 2);
            }
        } else if (arg == "--mix") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            mix = split_commas(v);
        } else if (arg == "--trace") {
            trace = true;
        } else if (arg == "--trace-sample") {
            const char* v = value();
            if (!v || !parse_unsigned(v, trace_sample_permille, 1000)) {
                return usage(argv[0], 2);
            }
            trace = true;
        } else if (arg == "--trace-out") {
            const char* v = value();
            if (!v) return usage(argv[0], 2);
            trace_out = v;
            trace = true;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg.c_str());
            return usage(argv[0], 2);
        }
    }

    if (!port_file.empty()) {
        const auto p = util::read_port_file(port_file);
        if (!p) {
            std::fprintf(stderr, "hsw_query: no port in %s after 5 s\n",
                         port_file.c_str());
            return 1;
        }
        port = *p;
    }
    if (port == 0) {
        std::fprintf(stderr, "hsw_query: --port or --port-file required\n");
        return 2;
    }

    // Propagating a context downstream needs no local recording; the span
    // ring only runs when the client's own spans were asked for.
    if (!trace_out.empty()) obs::trace::enable();
    // Head-sampling decision at the origin, from a deterministic walk so
    // reruns sample the same request indexes.
    auto make_traced_root = [&](std::uint64_t& walk) {
        const bool sampled = trace_sample_permille >= 1000 ||
                             util::mix64(walk++) % 1000 < trace_sample_permille;
        return obs::trace::make_root(sampled);
    };

    auto write_client_trace = [&] {
        if (trace_out.empty()) return true;
        obs::trace::disable();
        if (!obs::trace::write_chrome_json(trace_out)) {
            std::fprintf(stderr, "hsw_query: cannot write trace %s\n",
                         trace_out.c_str());
            return false;
        }
        return true;
    };

    try {
        if (ping || stats || metrics || shutdown) {
            RetryingClient client{host, port, retries};
            service::protocol::Request verb;
            verb.verb = ping      ? service::protocol::Verb::Ping
                        : stats   ? service::protocol::Verb::Stats
                        : metrics ? service::protocol::Verb::Metrics
                                  : service::protocol::Verb::Shutdown;
            verb.format = metrics_format;
            const auto response = client.call(verb);
            if (!response.ok()) {
                std::fprintf(stderr, "hsw_query: %s: %s\n",
                             std::string{name(response.code)}.c_str(),
                             response.payload.c_str());
                return 1;
            }
            if (!response.payload.empty()) std::puts(response.payload.c_str());
            return 0;
        }

        if (bench) {
            if (mix.empty()) mix.push_back("fig3");
            const std::uint64_t total = requests;
            std::vector<BenchSlice> slices(threads);
            std::vector<std::thread> workers;
            const auto t0 = std::chrono::steady_clock::now();
            for (unsigned t = 0; t < threads; ++t) {
                workers.emplace_back([&, t] {
                    BenchSlice& slice = slices[t];
                    const auto slice_t0 = std::chrono::steady_clock::now();
                    std::uint64_t trace_walk = 0x51D0 + t;
                    try {
                        RetryingClient client{host, port, retries};
                        std::vector<service::protocol::Request> window;
                        auto flush_window = [&] {
                            if (window.empty()) return;
                            // One root per window: pipelined requests share
                            // a round-trip, so they share a trace too.
                            std::optional<obs::trace::ContextScope> scope;
                            if (trace) scope.emplace(make_traced_root(trace_walk));
                            const auto q0 = std::chrono::steady_clock::now();
                            const auto responses = pipeline > 1
                                                       ? client.call_pipelined(window)
                                                       : std::vector{client.call(
                                                             window.front())};
                            const auto q1 = std::chrono::steady_clock::now();
                            // Pipelined requests share the window's
                            // round-trip: that IS the latency each of them
                            // observes from the caller's seat.
                            const double ms =
                                std::chrono::duration<double, std::milli>{q1 - q0}
                                    .count();
                            for (const auto& response : responses) {
                                slice.latencies_ms.push_back(ms);
                                if (response.ok()) {
                                    ++slice.ok;
                                    using Source = service::protocol::Source;
                                    if (response.source == Source::HotCache) {
                                        ++slice.hot;
                                    }
                                    if (response.source == Source::DiskCache) {
                                        ++slice.disk;
                                    }
                                    if (response.source == Source::Computed) {
                                        ++slice.computed;
                                    }
                                } else {
                                    ++slice.rejected;
                                    if (slice.first_error.empty()) {
                                        slice.first_error =
                                            std::string{name(response.code)} + ": " +
                                            response.payload;
                                    }
                                }
                            }
                            window.clear();
                        };
                        for (std::uint64_t i = t; i < total; i += threads) {
                            service::protocol::Request r = request;
                            r.experiment = mix[i % mix.size()];
                            // Deterministic duplicate pattern: request i is a
                            // duplicate iff its bucket falls below the ratio;
                            // the rest get a unique seed (fresh spec).
                            const bool duplicate =
                                static_cast<double>(i % 100) < duplicate_ratio * 100.0;
                            if (!duplicate) r.seed = request.seed + i + 1;
                            window.push_back(std::move(r));
                            if (window.size() >= pipeline) flush_window();
                        }
                        flush_window();
                    } catch (const std::exception& e) {
                        if (slice.first_error.empty()) slice.first_error = e.what();
                    }
                    slice.wall_s = std::chrono::duration<double>{
                        std::chrono::steady_clock::now() - slice_t0}
                                       .count();
                });
            }
            for (auto& w : workers) w.join();
            const double wall_s =
                std::chrono::duration<double>{std::chrono::steady_clock::now() - t0}
                    .count();

            BenchSlice all;
            for (const auto& slice : slices) {
                all.latencies_ms.insert(all.latencies_ms.end(),
                                        slice.latencies_ms.begin(),
                                        slice.latencies_ms.end());
                all.ok += slice.ok;
                all.rejected += slice.rejected;
                all.hot += slice.hot;
                all.disk += slice.disk;
                all.computed += slice.computed;
                if (all.first_error.empty()) all.first_error = slice.first_error;
            }
            const double sent = static_cast<double>(all.latencies_ms.size());
            std::printf(
                "bench: %llu requests (%u threads, pipeline %u, duplicate ratio "
                "%.2f, mix",
                static_cast<unsigned long long>(all.latencies_ms.size()), threads,
                pipeline, duplicate_ratio);
            for (const auto& m : mix) std::printf(" %s", m.c_str());
            std::printf(")\n");
            std::printf("  ok %llu  rejected %llu  (hot %llu, disk %llu, "
                        "computed %llu)\n",
                        static_cast<unsigned long long>(all.ok),
                        static_cast<unsigned long long>(all.rejected),
                        static_cast<unsigned long long>(all.hot),
                        static_cast<unsigned long long>(all.disk),
                        static_cast<unsigned long long>(all.computed));
            if (!all.latencies_ms.empty()) {
                const util::QuantileSummary q = util::quantile_summary(all.latencies_ms);
                std::printf("  wall %.3f s  %.1f req/s  p50 %.2f ms  p99 %.2f ms  "
                            "p99.9 %.2f ms\n",
                            wall_s, sent / wall_s, q.p50, q.p99, q.p999);
                // Per-client spread: a fair server keeps min and max close;
                // a convoying one starves some connections while others fly.
                double min_rate = 0, max_rate = 0;
                bool first = true;
                for (const auto& slice : slices) {
                    if (slice.latencies_ms.empty() || slice.wall_s <= 0) continue;
                    const double rate =
                        static_cast<double>(slice.latencies_ms.size()) / slice.wall_s;
                    min_rate = first ? rate : std::min(min_rate, rate);
                    max_rate = first ? rate : std::max(max_rate, rate);
                    first = false;
                }
                if (!first) {
                    std::printf("  per-client %.1f..%.1f req/s (min..max of %u)\n",
                                min_rate, max_rate, threads);
                }
            }
            if (!all.first_error.empty()) {
                std::fprintf(stderr, "hsw_query: first error: %s\n",
                             all.first_error.c_str());
            }
            if (!write_client_trace()) return 1;
            return all.ok == total ? 0 : 1;
        }

        // Single query.
        if (request.experiment.empty()) {
            std::fprintf(stderr, "hsw_query: --experiment required\n");
            return 2;
        }
        RetryingClient client{host, port, retries};
        std::uint64_t trace_walk = 0x51D0;
        std::optional<obs::trace::ContextScope> scope;
        if (trace) {
            const auto root = make_traced_root(trace_walk);
            scope.emplace(root);
            std::fprintf(stderr, "hsw_query: trace id %016llx%s\n",
                         static_cast<unsigned long long>(root.trace_id),
                         root.sampled() ? "" : " (unsampled)");
        }
        const auto response = client.call(request);
        if (!response.ok()) {
            std::fprintf(stderr, "hsw_query: %s: %s\n",
                         std::string{name(response.code)}.c_str(),
                         response.payload.c_str());
            return 1;
        }
        if (request.point != "*") {
            std::fwrite(response.payload.data(), 1, response.payload.size(), stdout);
            std::fprintf(stderr, "hsw_query: %s/%s: %zu bytes (%s)\n",
                         request.experiment.c_str(), request.point.c_str(),
                         response.payload.size(),
                         std::string{name(response.source)}.c_str());
            return write_client_trace() ? 0 : 1;
        }
        const auto sections = engine::unpack_sections(response.payload);
        if (!sections) {
            std::fprintf(stderr, "hsw_query: malformed artifact blob\n");
            return 1;
        }
        std::filesystem::create_directories(out_dir);
        std::size_t written = 0;
        for (const auto& [section_name, bytes] : *sections) {
            std::string_view sv = section_name;
            std::string_view kind;
            if (sv.starts_with("csv:")) {
                kind = "csv";
                sv.remove_prefix(4);
            } else if (sv.starts_with("render:")) {
                if (!renders) continue;
                kind = "render";
                sv.remove_prefix(7);
            } else {
                continue;
            }
            const std::filesystem::path path =
                std::filesystem::path{out_dir} / std::string{sv};
            if (!write_file(path, bytes)) {
                std::fprintf(stderr, "hsw_query: cannot write %s\n",
                             path.string().c_str());
                return 1;
            }
            std::fprintf(stderr, "hsw_query: wrote %s (%s, %zu bytes)\n",
                         path.string().c_str(), std::string{kind}.c_str(),
                         bytes.size());
            ++written;
        }
        std::fprintf(stderr, "hsw_query: %s: %zu artifact(s) (%s)\n",
                     request.experiment.c_str(), written,
                     std::string{name(response.source)}.c_str());
        return write_client_trace() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hsw_query: %s\n", e.what());
        return 1;
    }
}
