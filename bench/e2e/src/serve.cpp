// The three serving workloads. Each drives a real server over loopback
// TCP from one process, with at most nproc generator threads and
// connections, and checks every reply: code and size against a reference
// from a standalone SurveyService, and a seeded 1-in-16 sample byte for
// byte.
//
//   serve-hot     closed loop, one request per round trip, 64 prewarmed
//                 specs: socket, reactor, protocol, route_key and a hot
//                 lookup; never the engine or the disk.
//   serve-mixed   open loop, Poisson arrivals at 2,000 req/s, 65 % hot /
//                 30 % disk / 5 % fresh: the disk tier and compute pool.
//   fleet-routed  closed loop of 16-request batch frames through a
//                 RouterServer to 2 shards: the router hop and batch path.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <functional>
#include <thread>

#include "bench.hpp"
#include "router/router.hpp"
#include "router/server.hpp"
#include "router/upstream.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

namespace e2e {

namespace {

namespace service = hsw::service;
namespace router = hsw::router;
using Payload = std::shared_ptr<const std::string>;

constexpr std::uint64_t kSampleMask = 15;  // 1 in 16 replies compared byte for byte
constexpr std::size_t kSpansPerThread = 4000;
constexpr double kSloUs = 2000.0;          // serve-mixed: p99 limit for cache hits
constexpr unsigned kWindow = 16;           // fleet-routed batch size

/// Reference payloads from a standalone SurveyService (no disk), one per
/// spec; specs with `needed[i] == false` are skipped.
std::vector<Payload> references(const std::vector<Spec>& specs, const std::vector<bool>& needed,
                                unsigned threads, Report& report) {
    service::SurveyService reference{service::ServiceConfig{}};
    std::vector<Payload> refs(specs.size());
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (std::size_t i = t; i < specs.size(); i += threads) {
                if (!needed[i]) continue;
                auto result = reference.query(specs[i].request());
                if (!result.ok()) {
                    report.fail("reference query failed: " + result.message);
                } else {
                    refs[i] = std::move(result.payload);
                }
            }
        });
    }
    for (auto& thread : pool) thread.join();
    return refs;
}

/// --self-test: flips one byte of one reference, so a run that compares
/// against it must fail.
void corrupt(Payload& ref) {
    if (!ref || ref->empty()) return;
    std::string bad = *ref;
    bad[bad.size() / 2] ^= 1;
    ref = std::make_shared<const std::string>(std::move(bad));
}

/// Code and size check on every reply; bytes on sampled ones.
bool reply_ok(const std::optional<protocol::Response>& reply, const Payload& ref, bool sampled,
              Report& report) {
    if (!reply) {
        report.fail("unparseable reply");
        return false;
    }
    if (!reply->ok()) {
        report.fail("reply code " + std::string{protocol::name(reply->code)} + ": " +
                    reply->payload.substr(0, 120));
        return false;
    }
    if (!ref || reply->payload.size() != ref->size()) {
        report.fail("reply size " + std::to_string(reply->payload.size()) + " != reference " +
                    std::to_string(ref ? ref->size() : 0));
        return false;
    }
    if (sampled && reply->payload != *ref) {
        report.fail("sampled reply bytes differ from the reference");
        return false;
    }
    return true;
}

service::ServiceStats sum(const service::ServiceStats& a, const service::ServiceStats& b) {
    service::ServiceStats s = a;
    s.response_hits += b.response_hits;
    s.hot_hits += b.hot_hits;
    s.disk_hits += b.disk_hits;
    s.computed += b.computed;
    s.coalesced += b.coalesced;
    s.rejected_overload += b.rejected_overload;
    s.rejected_deadline += b.rejected_deadline;
    s.rejected_unknown += b.rejected_unknown;
    s.rejected_draining += b.rejected_draining;
    s.failed += b.failed;
    s.hot_cache.hits += b.hot_cache.hits;
    s.hot_cache.misses += b.hot_cache.misses;
    s.hot_cache.evictions += b.hot_cache.evictions;
    s.disk_cache.hits += b.disk_cache.hits;
    s.disk_cache.misses += b.disk_cache.misses;
    s.disk_cache.stores += b.disk_cache.stores;
    return s;
}

/// Warm-up, then the timed segment of whole windows; a traced run splits
/// the load time into an untraced half and a traced half.
struct Phases {
    Clock::time_point start, warm_end, timed_end, end;
    double timed_s = 0.0;
    double window_s = 1.0;
    std::size_t windows = 0;

    explicit Phases(const Options& options, Clock::time_point at = Clock::now()) {
        window_s = options.window_s();
        timed_s = options.traced ? options.seconds / 2 : options.seconds;
        windows = std::max<std::size_t>(1, static_cast<std::size_t>(timed_s / window_s + 1e-9));
        start = at;
        warm_end = after(start, options.warmup_s());
        timed_end = after(warm_end, timed_s);
        end = options.traced ? after(timed_end, timed_s) : timed_end;
    }
    [[nodiscard]] static Clock::time_point after(Clock::time_point t, double s) {
        return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
    }
    /// Index of the timed window holding `t` (>= windows past the end).
    [[nodiscard]] std::size_t window_of(Clock::time_point t) const {
        return static_cast<std::size_t>(seconds_between(warm_end, t) / window_s);
    }
};

/// Samples service stats at the phase boundaries, and process CPU at every
/// window boundary, while the load threads run.
template <class Stats>
struct Snapshots {
    Stats warm_end{}, timed_end{}, end{};
    std::vector<double> cpu;  // at warm_end + k * window_s, k = 0..windows

    void take(const Phases& phases, const std::function<Stats()>& stats) {
        std::this_thread::sleep_until(phases.warm_end);
        warm_end = stats();
        cpu.push_back(process_cpu_s());
        for (std::size_t k = 1; k <= phases.windows; ++k) {
            std::this_thread::sleep_until(Phases::after(phases.warm_end, k * phases.window_s));
            cpu.push_back(process_cpu_s());
        }
        std::this_thread::sleep_until(phases.timed_end);
        timed_end = stats();
        std::this_thread::sleep_until(phases.end);
        end = stats();
    }
};

/// One window of the timed segment.
struct Window {
    Histogram latency;
    std::uint64_t ops = 0;        // latency samples (requests, or batch windows)
    std::uint64_t requests = 0;   // completed requests
};

/// The end-to-end metrics of a serving workload: each a median over the
/// timed windows; latency per window is a histogram percentile.
void add_window_metrics(const std::vector<Window>& windows, const std::vector<double>& cpu,
                        double window_s, const std::vector<double>& setups, Report& report) {
    std::vector<double> throughput, p50, p99, cpu_per_op;
    std::uint64_t ops = 0, requests = 0;
    for (std::size_t w = 0; w < windows.size(); ++w) {
        const Window& win = windows[w];
        ops += win.ops;
        requests += win.requests;
        throughput.push_back(static_cast<double>(win.requests) / window_s);
        p50.push_back(win.latency.percentile(0.50));
        p99.push_back(win.latency.percentile(0.99));
        if (w + 1 < cpu.size() && win.requests > 0) {
            cpu_per_op.push_back((cpu[w + 1] - cpu[w]) * 1e6 / static_cast<double>(win.requests));
        }
    }
    report.add_e2e("setup_s", median(setups), "s", setups.size());
    report.add_e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.add_e2e("throughput_rps", median(throughput), "1/s", requests);
    report.add_e2e("latency_p50_us", median(p50), "us", ops);
    report.add_e2e("latency_p99_us", median(p99), "us", ops);
    report.add_e2e("cpu_us_per_op", median(cpu_per_op), "us", requests);
    report.note("windows", static_cast<double>(windows.size()));
    report.note("window_s", window_s);
    const auto series = [](const std::vector<double>& values) {
        std::string out;
        for (const double v : values) {
            if (!out.empty()) out += ' ';
            out += std::to_string(v);
        }
        return out;
    };
    report.note("window_throughput_rps", series(throughput));
    report.note("window_latency_p50_us", series(p50));
    report.note("window_latency_p99_us", series(p99));
    report.note("window_cpu_us_per_op", series(cpu_per_op));
}

// --- closed loops ------------------------------------------------------------

struct OpResult {
    bool transport_ok = true;
    unsigned requests = 0;
    unsigned failed = 0;
    Clock::time_point encoded, received, parsed;
};

struct LoadOut {
    std::vector<Window> windows;   // untraced timed segment
    StageTimes stages;             // per op, traced segment
    std::vector<TraceLog::Span> spans;
    std::uint64_t attempted = 0, failed = 0;
};

/// One closed-loop connection: `op(stamp)` sends one request or window,
/// waits for every reply and checks it; `stamp` asks for the intermediate
/// client-stage timestamps (traced segment only).
template <class Op>
void closed_loop(const Phases& phases, std::uint32_t tid, LoadOut& out, Report& report, Op op) {
    std::uint64_t span_id = static_cast<std::uint64_t>(tid) << 40;
    for (;;) {
        const auto t0 = Clock::now();
        if (t0 >= phases.end) break;
        const bool traced = t0 >= phases.timed_end;
        const OpResult r = op(traced);
        out.attempted += r.requests;
        out.failed += r.failed;
        if (!r.transport_ok) {
            report.fail("connection lost");
            break;
        }
        if (t0 < phases.warm_end) continue;
        const double total = us_between(t0, r.parsed);
        if (!traced) {
            const std::size_t w = phases.window_of(t0);
            if (w >= phases.windows) continue;  // partial tail window
            if (w >= out.windows.size()) out.windows.resize(w + 1);
            out.windows[w].latency.add(total);
            ++out.windows[w].ops;
            out.windows[w].requests += r.requests - r.failed;
            continue;
        }
        out.stages.add(us_between(t0, r.encoded), us_between(r.encoded, r.received),
                       us_between(r.received, r.parsed), total);
        if (out.spans.size() + 4 > kSpansPerThread) continue;
        const std::uint64_t root = ++span_id;
        span_id += 3;
        const auto span = [&](const char* name, std::uint64_t id, std::uint64_t parent,
                              Clock::time_point a, Clock::time_point b) {
            out.spans.push_back(
                TraceLog::Span{name, id, parent, TraceLog::epoch_us(a), us_between(a, b), tid});
        };
        span("op", root, 0, t0, r.parsed);
        span("client.encode", root + 1, root, t0, r.encoded);
        span("client.wait", root + 2, root, r.encoded, r.received);
        span("client.parse", root + 3, root, r.received, r.parsed);
    }
}

/// Runs `threads` closed loops (one connection each) while the main thread
/// takes the snapshots.
template <class Stats, class MakeOp>
std::vector<LoadOut> run_closed(unsigned threads, const Phases& phases, Report& report,
                                Snapshots<Stats>& snaps, const std::function<Stats()>& stats,
                                MakeOp make_op) {
    std::vector<LoadOut> outs(threads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            closed_loop(phases, t + 1, outs[t], report, make_op(t));
        });
    }
    snaps.take(phases, stats);
    for (auto& thread : pool) thread.join();
    return outs;
}

/// The end-to-end metrics of a closed loop, plus the traced run's client
/// stages; returns the traced mean client.wait (0 untraced).
double closed_metrics(const Options& options, const std::vector<LoadOut>& outs,
                    const Phases& phases, const std::vector<double>& cpu,
                    const std::vector<double>& setups, const std::string& op, Report& report,
                    TraceLog& log) {
    std::vector<Window> windows(phases.windows);
    Histogram all;
    StageTimes stages;
    for (const LoadOut& out : outs) {
        for (std::size_t w = 0; w < out.windows.size(); ++w) {
            windows[w].latency.merge(out.windows[w].latency);
            windows[w].ops += out.windows[w].ops;
            windows[w].requests += out.windows[w].requests;
            all.merge(out.windows[w].latency);
        }
        report.attempted += out.attempted;
        report.failed += out.failed;
        stages.merge(out.stages);
        for (const auto& span : out.spans) log.add(span);
    }
    add_window_metrics(windows, cpu, phases.window_s, setups, report);
    report.note("latency_unit", op);
    if (!options.traced) return 0.0;
    const double wait = add_client_stages(stages, op, report);
    report.add_layer("latency_p999_us", all.percentile(0.999), "us", all.count());
    report.add_layer("trace.overhead_frac", median(stages.total_us) / all.percentile(0.5) - 1.0,
                     "ratio", stages.total_us.size());
    return wait;
}

/// Splits a reply wait into the isolated server-side stages; what they do
/// not explain is printed as the residual.
void wait_ledger(const Isolation& iso, double wait_us, double per_op_requests, Report& report) {
    char line[160];
    auto& out = report.ledger;
    const auto row = [&](const char* name, double us) {
        std::snprintf(line, sizeof line, "  %-38s %10.3f", name, us);
        out.emplace_back(line);
    };
    std::snprintf(line, sizeof line,
                  "client.wait %.3f us split by stages measured in isolation (x%.0f requests):",
                  wait_us, per_op_requests);
    out.emplace_back(line);
    const double k = per_op_requests;
    const double parse = k * iso.parse_request_ns / 1e3;
    const double fast = k * iso.fast_path_ns / 1e3;
    const double header = k * iso.encode_header_ns / 1e3;
    row("service.protocol.parse_request", parse);
    row("service.fast_path (try_handle_fast)", fast);
    row("  of which route_key", k * iso.route_key_ns / 1e3);
    row("  of which hot_cache.lookup", k * iso.hot_lookup_ns / 1e3);
    row("service.protocol.encode_header", header);
    row("reactor.ping_rtt (socket + reactor)", iso.ping_rtt_us);
    row("residual (wait - stages above)", wait_us - parse - fast - header - iso.ping_rtt_us);
}

void write_trace(const Options& options, const TraceLog& log, Report& report) {
    if (!options.traced || options.trace_path.empty()) return;
    if (!log.write_chrome(options.trace_path)) report.fail("cannot write " + options.trace_path);
    report.note("trace_spans", static_cast<double>(log.kept()));
}

std::vector<double> setup_loop(const Options& options, const std::function<void(int)>& once) {
    std::vector<double> setups;
    for (int i = 0; i < options.setup_repeats(); ++i) {
        const auto t0 = Clock::now();
        once(i);
        setups.push_back(seconds_between(t0, Clock::now()));
    }
    return setups;
}

}  // namespace

// --- serve-hot ---------------------------------------------------------------

Report run_serve_hot(const Options& options) {
    Report report;
    report.workload = "serve-hot";
    const unsigned threads = options.generator_threads();
    Rng seeds{stream_seed(options.seed, 1)};
    std::vector<std::uint64_t> taken;
    const std::vector<Spec> specs = specs_for(draw_seeds(seeds, 8, taken));
    report.note("specs", static_cast<double>(specs.size()));
    report.note("connections", static_cast<double>(threads));
    report.note("generator_threads", static_cast<double>(threads));

    // One prewarm thread: the set-up then repeats better than at 4.
    std::unique_ptr<service::SurveyServer> server;
    const auto setups = setup_loop(options, [&](int) {
        server.reset();
        server = std::make_unique<service::SurveyServer>(service::ServerConfig{});
        server->start();
        prewarm([&](const Spec& s) { return server->service().query(s.request()).ok(); }, specs,
                1, report);
    });
    auto refs = references(specs, std::vector<bool>(specs.size(), true), threads, report);
    if (options.self_test) corrupt(refs[0]);

    std::vector<protocol::Request> requests;
    for (const Spec& s : specs) requests.push_back(s.request());
    std::vector<std::unique_ptr<Conn>> conns;
    for (unsigned t = 0; t < threads; ++t) conns.push_back(std::make_unique<Conn>(server->port()));

    Snapshots<service::ServiceStats> snaps;
    const Phases phases{options};
    const auto outs = run_closed<service::ServiceStats>(
        threads, phases, report, snaps, [&] { return server->service().stats(); },
        [&](unsigned t) {
            return [&, t, rng = Rng{stream_seed(options.seed, 100 + t)}](bool stamp) mutable {
                OpResult r;
                r.requests = 1;
                const std::size_t k = rng.below(requests.size());
                const bool sampled = (rng.next() & kSampleMask) == 0;
                const std::string frame = requests[k].encode();
                if (stamp) r.encoded = Clock::now();
                std::optional<std::string> reply;
                if (!conns[t]->send(frame) || !(reply = conns[t]->recv())) {
                    r.transport_ok = false;
                    r.failed = 1;
                    return r;
                }
                if (stamp) r.received = Clock::now();
                if (!reply_ok(protocol::parse_response(*reply), refs[k], sampled, report)) {
                    r.failed = 1;
                }
                r.parsed = Clock::now();
                return r;
            };
        });

    TraceLog log{4 * kSpansPerThread * threads};
    const double wait =
        closed_metrics(options, outs, phases, snaps.cpu, setups, "request", report, log);
    if (options.traced) {
        add_service_counts(snaps.timed_end, snaps.end, report);
        const Isolation iso = run_isolation(options, specs, /*router_counts=*/true, report);
        add_engine_layers({quick_survey_pass(specs.front().seed, threads)}, report);
        wait_ledger(iso, wait, 1, report);
        write_trace(options, log, report);
    }
    return report;
}

// --- fleet-routed ------------------------------------------------------------

namespace {

/// Two SurveyServer shards (1 reactor thread, 2 compute workers each)
/// behind a Router over TcpTransport and its RouterServer. Members are
/// destroyed front door first; the router holds `transport` by reference,
/// so a Fleet never moves.
struct Fleet {
    std::vector<std::unique_ptr<service::SurveyServer>> shards;
    router::TcpTransport transport;
    std::unique_ptr<router::Router> router;
    std::unique_ptr<router::RouterServer> front;

    Fleet() {
        std::vector<router::ShardEndpoint> endpoints;
        for (int i = 0; i < 2; ++i) {
            service::ServerConfig cfg;
            cfg.reactor_threads = 1;
            cfg.service.workers = 2;
            shards.push_back(std::make_unique<service::SurveyServer>(cfg));
            shards.back()->start();
            endpoints.push_back(router::ShardEndpoint{"shard" + std::to_string(i), "127.0.0.1",
                                                      shards.back()->port()});
        }
        router = std::make_unique<router::Router>(router::FleetMap{std::move(endpoints)},
                                                  transport);
        front = std::make_unique<router::RouterServer>(*router);
        front->start();
    }
    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;

    [[nodiscard]] service::ServiceStats stats() const {
        return sum(shards[0]->service().stats(), shards[1]->service().stats());
    }
};

struct FleetStats {
    service::ServiceStats service;
    router::RouterStats router;
};

}  // namespace

Report run_fleet_routed(const Options& options) {
    Report report;
    report.workload = "fleet-routed";
    const unsigned threads = options.generator_threads();
    Rng seeds{stream_seed(options.seed, 2)};
    std::vector<std::uint64_t> taken;
    const std::vector<Spec> specs = specs_for(draw_seeds(seeds, options.smoke ? 8 : 32, taken));
    report.note("specs", static_cast<double>(specs.size()));
    report.note("connections", static_cast<double>(threads));
    report.note("generator_threads", static_cast<double>(threads));
    report.note("batch", static_cast<double>(kWindow));
    report.note("shards", 2.0);

    std::unique_ptr<Fleet> fleet;
    const auto setups = setup_loop(options, [&](int) {
        fleet.reset();
        fleet = std::make_unique<Fleet>();
        prewarm([&](const Spec& s) { return fleet->router->handle(s.request()).ok(); }, specs,
                threads, report);
    });
    auto refs = references(specs, std::vector<bool>(specs.size(), true), threads, report);
    if (options.self_test) corrupt(refs[0]);

    std::vector<std::unique_ptr<Conn>> conns;
    for (unsigned t = 0; t < threads; ++t) {
        conns.push_back(std::make_unique<Conn>(fleet->front->port()));
    }
    Snapshots<FleetStats> snaps;
    const Phases phases{options};
    const auto outs = run_closed<FleetStats>(
        threads, phases, report, snaps,
        [&] { return FleetStats{fleet->stats(), fleet->router->stats()}; },
        [&](unsigned t) {
            return [&, t, rng = Rng{stream_seed(options.seed, 200 + t)},
                    next_tag = std::uint64_t{0}](bool stamp) mutable {
                OpResult r;
                r.requests = kWindow;
                std::vector<protocol::Request> window;
                std::size_t index[kWindow];
                bool sampled[kWindow];
                bool seen[kWindow] = {};
                const std::uint64_t base = next_tag;
                next_tag += kWindow;
                for (unsigned j = 0; j < kWindow; ++j) {
                    index[j] = rng.below(specs.size());
                    sampled[j] = (rng.next() & kSampleMask) == 0;
                    window.push_back(specs[index[j]].request(base + j + 1));
                }
                const std::string frame = protocol::encode_batch(window);
                if (stamp) r.encoded = Clock::now();
                if (!conns[t]->send(frame)) {
                    r.transport_ok = false;
                    r.failed = kWindow;
                    return r;
                }
                std::vector<std::string> frames;
                for (unsigned j = 0; j < kWindow; ++j) {
                    auto reply = conns[t]->recv();
                    if (!reply) {
                        r.transport_ok = false;
                        r.failed = kWindow;
                        return r;
                    }
                    frames.push_back(std::move(*reply));
                }
                if (stamp) r.received = Clock::now();
                for (const std::string& bytes : frames) {
                    const auto reply = protocol::parse_response(bytes);
                    const std::uint64_t slot = reply ? reply->tag - base - 1 : kWindow;
                    if (slot >= kWindow || seen[slot]) {
                        report.fail("reply with an unknown or repeated tag");
                        ++r.failed;
                        continue;
                    }
                    seen[slot] = true;
                    if (!reply_ok(reply, refs[index[slot]], sampled[slot], report)) ++r.failed;
                }
                r.parsed = Clock::now();
                return r;
            };
        });

    TraceLog log{4 * kSpansPerThread * threads};
    // Latency is per 16-request window; throughput and cpu_us_per_op are per
    // request.
    const double wait =
        closed_metrics(options, outs, phases, snaps.cpu, setups, "window", report, log);
    if (options.traced) {
        add_service_counts(snaps.timed_end.service, snaps.end.service, report);
        add_router_counts(snaps.timed_end.router, snaps.end.router, report);
        const std::vector<Spec> iso_specs(specs.begin(),
                                          specs.begin() + std::min<std::size_t>(64, specs.size()));
        const Isolation iso = run_isolation(options, iso_specs, /*router_counts=*/false, report);
        add_engine_layers({quick_survey_pass(specs.front().seed, threads)}, report);
        char line[160];
        std::snprintf(line, sizeof line,
                      "router hop per 16-request window (isolation, 1 shard): %.3f us", iso.router_hop_us);
        report.ledger.emplace_back(line);
        wait_ledger(iso, wait, kWindow, report);
        write_trace(options, log, report);
    }
    return report;
}

// --- serve-mixed -------------------------------------------------------------

namespace {

enum class Kind : std::uint8_t { Hot, Cold, Fresh };

struct Planned {
    double due_s = 0.0;  // since the schedule start
    std::uint32_t spec = 0;
    Kind kind = Kind::Hot;
    bool sampled = false;
};

/// One open-loop connection: a sender that writes each request at its due
/// time and a receiver that matches tagged replies. Per-request arrays are
/// written by one side each; the encode stamps cross threads as atomics.
struct OpenConn {
    std::vector<Planned> plan;
    std::unique_ptr<Conn> conn;
    std::vector<double> late_us;                                 // sender
    std::unique_ptr<std::atomic<double>[]> encode_start, encode_end;  // sender -> receiver
    std::vector<double> latency_us, received_s;                  // receiver; -1 = no reply
    std::vector<protocol::Source> source;                        // receiver
    std::vector<std::uint8_t> good;                              // receiver
    StageTimes stages;                                           // receiver, traced window
    std::vector<TraceLog::Span> spans;                           // receiver
};

}  // namespace

Report run_serve_mixed(const Options& options) {
    Report report;
    report.workload = "serve-mixed";
    const unsigned threads = options.generator_threads();
    const unsigned nconn = std::max(1u, std::min(2u, threads / 2));
    constexpr double kRate = 2000.0;
    report.note("rate_rps", kRate);
    report.note("connections", static_cast<double>(nconn));
    report.note("generator_threads", static_cast<double>(2 * nconn));

    // Spec sets: 64 hot, 1,024 cold (prewarmed to disk), fresh seeds drawn
    // as the schedule needs them; no seed is in two sets.
    Rng seeds{stream_seed(options.seed, 3)};
    std::vector<std::uint64_t> taken;
    std::vector<Spec> specs = specs_for(draw_seeds(seeds, 8, taken));
    const std::size_t hot_n = specs.size();
    const auto cold = specs_for(draw_seeds(seeds, options.smoke ? 16 : 128, taken));
    specs.insert(specs.end(), cold.begin(), cold.end());
    const std::size_t cold_n = cold.size();

    // Stratified draws: every block of 20 consecutive requests on a
    // connection holds exactly 13 hot, 6 cold and 1 fresh spec in seeded
    // order, and fresh specs rotate through the serve mix, so the work mix
    // of a run does not depend on its seed.
    const double warm_s = options.warmup_s();
    const double timed_s = options.traced ? options.seconds / 2 : options.seconds;
    const double total_s = warm_s + (options.traced ? 2 * timed_s : timed_s);
    std::vector<OpenConn> conns(nconn);
    std::size_t fresh = 0;
    std::uint64_t fresh_seed = 0;
    for (unsigned c = 0; c < nconn; ++c) {
        Rng rng{stream_seed(options.seed, 300 + c)};
        std::array<Kind, 20> block{};
        std::size_t slot = block.size();
        for (double t = 0.0;;) {
            t += -std::log(1.0 - rng.uniform()) / (kRate / nconn);
            if (t >= total_s) break;
            if (slot == block.size()) {
                block.fill(Kind::Hot);
                std::fill(block.begin() + 13, block.begin() + 19, Kind::Cold);
                block[19] = Kind::Fresh;
                for (std::size_t i = block.size() - 1; i > 0; --i) {
                    std::swap(block[i], block[rng.below(i + 1)]);
                }
                slot = 0;
            }
            Planned p;
            p.due_s = t;
            p.kind = block[slot++];
            if (p.kind == Kind::Hot) {
                p.spec = static_cast<std::uint32_t>(rng.below(hot_n));
            } else if (p.kind == Kind::Cold) {
                p.spec = static_cast<std::uint32_t>(hot_n + rng.below(cold_n));
            } else {
                const auto& mix = serve_mix();
                if (fresh % mix.size() == 0) fresh_seed = draw_seeds(seeds, 1, taken).front();
                p.spec = static_cast<std::uint32_t>(specs.size());
                specs.push_back(Spec{mix[fresh++ % mix.size()], fresh_seed});
            }
            p.sampled = (rng.next() & kSampleMask) == 0;
            conns[c].plan.push_back(p);
        }
    }
    const std::vector<Spec> hot(specs.begin(), specs.begin() + static_cast<std::ptrdiff_t>(hot_n));
    report.note("specs_hot", static_cast<double>(hot_n));
    report.note("specs_cold", static_cast<double>(cold_n));
    report.note("specs_fresh", static_cast<double>(specs.size() - hot_n - cold_n));

    std::unique_ptr<service::SurveyServer> server;
    const auto setups = setup_loop(options, [&](int i) {
        server.reset();
        service::ServerConfig cfg;
        cfg.service.hot_cache.max_bytes = 1u << 20;
        cfg.service.max_queue = 4096;
        cfg.service.disk_cache_dir = options.work_dir / ("mixed-disk-" + std::to_string(i));
        std::filesystem::remove_all(*cfg.service.disk_cache_dir);
        server = std::make_unique<service::SurveyServer>(cfg);
        server->start();
        const auto query = [&](const Spec& s) { return server->service().query(s.request()).ok(); };
        prewarm(query, cold, threads, report);
        prewarm(query, hot, threads, report);
    });

    std::vector<bool> needed(specs.size(), false);
    for (const OpenConn& c : conns) {
        for (const Planned& p : c.plan) needed[p.spec] = true;
    }
    auto refs = references(specs, needed, threads, report);
    if (options.self_test) {
        for (const Planned& p : conns[0].plan) {
            if (p.sampled) {
                corrupt(refs[p.spec]);
                break;
            }
        }
    }

    for (OpenConn& c : conns) {
        const std::size_t n = c.plan.size();
        c.conn = std::make_unique<Conn>(server->port());
        c.late_us.assign(n, 0.0);
        c.encode_start = std::make_unique<std::atomic<double>[]>(n);
        c.encode_end = std::make_unique<std::atomic<double>[]>(n);
        c.latency_us.assign(n, -1.0);
        c.received_s.assign(n, -1.0);
        c.source.assign(n, protocol::Source::Computed);
        c.good.assign(n, 0);
    }

    const Phases phases{options};
    const auto due_at = [&phases](double s) { return Phases::after(phases.start, s); };
    const auto traced_from = warm_s + timed_s;
    std::vector<std::thread> pool;
    for (unsigned ci = 0; ci < nconn; ++ci) {
        OpenConn& c = conns[ci];
        pool.emplace_back([&, ci] {
            for (std::size_t i = 0; i < c.plan.size(); ++i) {
                const auto due = due_at(c.plan[i].due_s);
                std::this_thread::sleep_until(due);
                const auto t0 = Clock::now();
                c.late_us[i] = us_between(due, t0);
                const std::string frame = specs[c.plan[i].spec].request(i + 1).encode();
                c.encode_start[i].store(TraceLog::epoch_us(t0), std::memory_order_relaxed);
                c.encode_end[i].store(TraceLog::epoch_us(Clock::now()), std::memory_order_relaxed);
                if (!c.conn->send(frame)) {
                    report.fail("send failed on connection " + std::to_string(ci));
                    break;
                }
            }
        });
        pool.emplace_back([&, ci] {
            std::uint64_t span_id = static_cast<std::uint64_t>(ci + 1) << 40;
            for (std::size_t got = 0; got < c.plan.size(); ++got) {
                const auto bytes = c.conn->recv();
                const auto received = Clock::now();
                if (!bytes) {
                    report.fail("connection " + std::to_string(ci) + " lost " +
                                std::to_string(c.plan.size() - got) + " replies");
                    return;
                }
                const auto reply = protocol::parse_response(*bytes);
                const std::uint64_t i = reply ? reply->tag - 1 : c.plan.size();
                if (i >= c.plan.size() || c.received_s[i] >= 0) {
                    report.fail("reply with an unknown or repeated tag");
                    continue;
                }
                const Planned& p = c.plan[i];
                c.good[i] = reply_ok(reply, refs[p.spec], p.sampled, report) ? 1 : 0;
                const auto parsed = Clock::now();
                c.received_s[i] = seconds_between(phases.start, received);
                c.latency_us[i] = us_between(due_at(p.due_s), parsed);
                c.source[i] = reply ? reply->source : protocol::Source::Computed;
                if (p.due_s < traced_from || !options.traced) continue;
                const double enc0 = c.encode_start[i].load(std::memory_order_relaxed);
                const double enc1 = c.encode_end[i].load(std::memory_order_relaxed);
                const double due_us = TraceLog::epoch_us(due_at(p.due_s));
                const double recv_us = TraceLog::epoch_us(received);
                const double done_us = TraceLog::epoch_us(parsed);
                c.stages.add(enc1 - enc0, recv_us - enc1, done_us - recv_us, done_us - due_us);
                if (c.spans.size() + 4 > kSpansPerThread) continue;
                const std::uint64_t root = ++span_id;
                span_id += 3;
                const auto tid = static_cast<std::uint32_t>(ci + 1);
                c.spans.push_back({"request", root, 0, due_us, done_us - due_us, tid});
                c.spans.push_back({"client.encode", root + 1, root, enc0, enc1 - enc0, tid});
                c.spans.push_back({"client.wait", root + 2, root, enc1, recv_us - enc1, tid});
                c.spans.push_back({"client.parse", root + 3, root, recv_us, done_us - recv_us, tid});
            }
        });
    }
    Snapshots<service::ServiceStats> snaps;
    snaps.take(phases, [&] { return server->service().stats(); });
    for (auto& thread : pool) thread.join();

    // Windows of the timed segment: latency over the requests due in each;
    // throughput over the good replies received in each, so it drops only
    // if a backlog grows.
    std::vector<Window> windows(phases.windows);
    const auto window_of = [&](double s) {
        return s < warm_s ? windows.size()
                          : static_cast<std::size_t>((s - warm_s) / phases.window_s);
    };
    std::vector<double> latency, disk, late;
    std::uint64_t slo_n = 0, slo_miss = 0;
    StageTimes stages;
    TraceLog log{4 * kSpansPerThread * nconn};
    for (OpenConn& c : conns) {
        stages.merge(c.stages);
        for (const auto& span : c.spans) log.add(span);
        for (std::size_t i = 0; i < c.plan.size(); ++i) {
            ++report.attempted;
            if (!c.good[i]) ++report.failed;
            const std::size_t got = window_of(c.received_s[i]);
            if (c.good[i] && got < windows.size()) ++windows[got].requests;
            const std::size_t w = window_of(c.plan[i].due_s);
            if (w >= windows.size()) continue;
            late.push_back(c.late_us[i]);
            // The SLO covers cache-sourced replies; a failed one misses it.
            if (!c.good[i]) {
                ++slo_n;
                ++slo_miss;
                continue;
            }
            windows[w].latency.add(c.latency_us[i]);
            ++windows[w].ops;
            latency.push_back(c.latency_us[i]);
            if (c.source[i] == protocol::Source::DiskCache) disk.push_back(c.latency_us[i]);
            if (c.source[i] != protocol::Source::Computed) {
                ++slo_n;
                if (c.latency_us[i] > kSloUs) ++slo_miss;
            }
        }
    }
    add_window_metrics(windows, snaps.cpu, phases.window_s, setups, report);
    const std::uint64_t n = latency.size();
    report.add_extra("disk_p50_us", quantile(disk, 0.50), "us", disk.size());
    report.add_extra("disk_p99_us", quantile(disk, 0.99), "us", disk.size());
    report.add_extra("gen.late_p99_us", quantile(late, 0.99), "us", late.size());
    report.add_extra("service.slo_miss_frac",
                     slo_n > 0 ? static_cast<double>(slo_miss) / static_cast<double>(slo_n) : 0.0,
                     "ratio", slo_n);
    report.note("latency_unit", "request, from its due time");

    if (options.traced) {
        (void)add_client_stages(stages, "request", report);
        report.add_layer("latency_p999_us", quantile(latency, 0.999), "us", n);
        report.add_layer("trace.overhead_frac",
                         median(stages.total_us) / quantile(latency, 0.5) - 1.0, "ratio",
                         stages.total_us.size());
        add_service_counts(snaps.timed_end, snaps.end, report);
        const Isolation iso = run_isolation(options, hot, /*router_counts=*/true, report);
        add_engine_layers({quick_survey_pass(hot.front().seed, threads)}, report);
        const double disk_p50 = quantile(disk, 0.50);
        report.add_extra("service.disk_wait_us", disk_p50 - (iso.query_disk_us + iso.ping_rtt_us),
                         "us", disk.size());
        char line[160];
        std::snprintf(line, sizeof line,
                      "disk-sourced request p50 %.3f us = query_disk %.3f + ping_rtt %.3f + "
                      "residual (waiting) %.3f",
                      disk_p50, iso.query_disk_us, iso.ping_rtt_us,
                      disk_p50 - iso.query_disk_us - iso.ping_rtt_us);
        report.ledger.emplace_back(line);
        write_trace(options, log, report);
    }
    return report;
}

}  // namespace e2e
