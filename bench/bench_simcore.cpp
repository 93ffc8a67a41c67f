// Microbenchmarks of the discrete-event simulation core.
//
// Each scenario stresses one shape of the event engine the survey leans on:
//
//   oneshot_churn    schedule N one-shots, drain, repeat -- raw queue
//                    throughput including slab/heap growth
//   pending_density  a self-sustaining ring of H in-flight events -- how
//                    dispatch cost scales with heap depth
//   periodic_heavy   P free-running periodic tasks (the RAPL-refresh /
//                    meter-sampling shape) -- the dominant event mix of a
//                    Node simulation
//   cancel_churn     schedule-then-cancel half the events -- cancellation
//                    cost and bookkeeping hygiene
//   node_second      a full dual-socket Node simulating wall-clock time --
//                    the end-to-end number the survey's cold path sees
//
// Per-scenario output: events/sec plus p50/p99 of per-event dispatch time
// sampled over fixed-size chunks. Results go to stderr (human) and, with
// --json <path>, to a BenchJson file (machine).
//
//   bench_simcore [--quick] [--telemetry] [--json <path>]
//
// --telemetry turns the obs metrics registry and span tracing on for the
// whole run, measuring the instrumented-but-enabled configuration. CI runs
// --quick five times each way, alternating, and fails when the median
// telemetry/plain periodic-heavy events/sec ratio falls below 0.75.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/node.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/bench_json.hpp"
#include "util/stats.hpp"
#include "workloads/mixes.hpp"

using namespace hsw;
using util::Time;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>{Clock::now() - t0}.count();
}

/// p50/p99 of per-event cost across chunks (each chunk = `events_per_chunk`
/// dispatches timed together; single-event timing would measure the clock).
util::QuantileSummary chunk_quantiles(const std::vector<double>& chunk_ms,
                                      double events_per_chunk) {
    if (chunk_ms.empty() || events_per_chunk <= 0) return {};
    std::vector<double> per_event_ns;
    per_event_ns.reserve(chunk_ms.size());
    for (const double ms : chunk_ms) {
        per_event_ns.push_back(ms * 1e6 / events_per_chunk);
    }
    return util::quantile_summary(per_event_ns);
}

void report(util::BenchJson& json, const char* scenario, unsigned size,
            std::uint64_t events, double wall_ms,
            const util::QuantileSummary& chunks) {
    const double events_per_sec = wall_ms > 0 ? static_cast<double>(events) / (wall_ms * 1e-3) : 0.0;
    json.add_run()
        .set("scenario", scenario)
        .set("size", size)
        .set("events", events)
        .set("wall_ms", wall_ms)
        .set("events_per_sec", events_per_sec)
        .set("p50_ns_per_event", chunks.p50)
        .set("p99_ns_per_event", chunks.p99);
    std::fprintf(stderr,
                 "%-16s size=%-6u %10llu events %9.1f ms %12.0f ev/s  "
                 "p50 %6.1f ns  p99 %6.1f ns\n",
                 scenario, size, static_cast<unsigned long long>(events), wall_ms,
                 events_per_sec, chunks.p50, chunks.p99);
}

void bench_oneshot_churn(util::BenchJson& json, unsigned batch, unsigned repeats) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    std::vector<double> chunk_ms;
    chunk_ms.reserve(repeats);
    const auto t0 = Clock::now();
    for (unsigned r = 0; r < repeats; ++r) {
        const auto c0 = Clock::now();
        const Time base = sim.now();
        for (unsigned i = 0; i < batch; ++i) {
            sim.schedule_at(base + Time::ns(i + 1), [&fired] { ++fired; });
        }
        sim.run_until(base + Time::ns(batch + 1));
        chunk_ms.push_back(ms_since(c0));
    }
    report(json, "oneshot_churn", batch, fired, ms_since(t0),
           chunk_quantiles(chunk_ms, batch));
}

void bench_pending_density(util::BenchJson& json, unsigned pending, unsigned rounds) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    // A ring of `pending` events; each firing reschedules itself one full
    // ring period ahead, so heap occupancy stays constant at `pending`.
    struct Ring {
        sim::Simulator* sim;
        std::uint64_t* fired;
        std::int64_t step_ns;
        void operator()() const {
            ++*fired;
            auto self = *this;
            sim->schedule_after(Time::ns(step_ns), self);
        }
    };
    for (unsigned i = 0; i < pending; ++i) {
        sim.schedule_at(Time::ns(i + 1), Ring{&sim, &fired, static_cast<std::int64_t>(pending)});
    }
    const std::uint64_t target = static_cast<std::uint64_t>(pending) * rounds;
    std::vector<double> chunk_ms;
    chunk_ms.reserve(rounds);
    const auto t0 = Clock::now();
    for (unsigned r = 0; r < rounds; ++r) {
        const auto c0 = Clock::now();
        sim.run_until(sim.now() + Time::ns(pending));
        chunk_ms.push_back(ms_since(c0));
    }
    const double wall = ms_since(t0);
    (void)target;
    report(json, "pending_density", pending, fired, wall,
           chunk_quantiles(chunk_ms, pending));
}

void bench_periodic_heavy(util::BenchJson& json, unsigned tasks, unsigned slices,
                          Time slice) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    for (unsigned i = 0; i < tasks; ++i) {
        // Staggered phases and co-prime-ish periods so fires spread out
        // instead of landing on one tick -- the Node's RAPL/meter shape.
        const Time period = Time::us(7) + Time::ns(13 * (i % 97));
        sim.schedule_periodic(Time::ns(i + 1), period, [&fired](Time) { ++fired; });
    }
    std::vector<double> chunk_ms;
    chunk_ms.reserve(slices);
    std::vector<std::uint64_t> chunk_events;
    chunk_events.reserve(slices);
    const auto t0 = Clock::now();
    std::uint64_t last = 0;
    for (unsigned s = 0; s < slices; ++s) {
        const auto c0 = Clock::now();
        sim.run_until(sim.now() + slice);
        chunk_ms.push_back(ms_since(c0));
        chunk_events.push_back(fired - last);
        last = fired;
    }
    const double wall = ms_since(t0);
    // Events per chunk is near-constant; use the mean for the quantiles.
    const double mean_events =
        chunk_events.empty() ? 0.0 : static_cast<double>(fired) / static_cast<double>(chunk_events.size());
    report(json, "periodic_heavy", tasks, fired, wall,
           chunk_quantiles(chunk_ms, mean_events));
}

void bench_cancel_churn(util::BenchJson& json, unsigned batch, unsigned repeats) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    std::vector<sim::EventId> ids;
    ids.reserve(batch);
    const auto t0 = Clock::now();
    std::uint64_t scheduled = 0;
    for (unsigned r = 0; r < repeats; ++r) {
        const Time base = sim.now();
        ids.clear();
        for (unsigned i = 0; i < batch; ++i) {
            ids.push_back(sim.schedule_at(base + Time::ns(i + 1), [&fired] { ++fired; }));
        }
        scheduled += batch;
        for (unsigned i = 0; i < batch; i += 2) sim.cancel(ids[i]);
        sim.run_until(base + Time::ns(batch + 1));
    }
    report(json, "cancel_churn", batch, scheduled, ms_since(t0), util::QuantileSummary{});
}

void bench_node_second(util::BenchJson& json, Time simulated) {
    // Best of three: a full Node window is short enough that one descheduled
    // tick skews the reading, and the interesting number is the engine's
    // capability, not the host's worst moment.
    double best_wall = 0.0;
    std::uint64_t events = 0;
    for (int attempt = 0; attempt < 3; ++attempt) {
        core::Node node;
        node.set_all_workloads(&workloads::firestarter(), 2);
        node.request_turbo_all();
        node.run_for(Time::ms(50));  // settle p-states before measuring
        const std::uint64_t before = node.simulator().processed_events();
        const auto t0 = Clock::now();
        node.run_for(simulated);
        const double wall = ms_since(t0);
        events = node.simulator().processed_events() - before;
        if (attempt == 0 || wall < best_wall) best_wall = wall;
    }
    report(json, "node_second", static_cast<unsigned>(simulated.as_ms()), events,
           best_wall, util::QuantileSummary{});
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool telemetry = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--telemetry") == 0) {
            telemetry = true;
        } else if (util::parse_json_flag(argc, argv, i, json_path)) {
            // handled
        } else {
            std::fprintf(stderr, "usage: %s [--quick] [--telemetry] [--json <path>]\n",
                         argv[0]);
            return 2;
        }
    }

    if (telemetry) {
        obs::set_metrics_enabled(true);
        obs::trace::enable();
    }

    util::BenchJson json{"simcore"};
    json.meta().set("quick", quick).set("telemetry", telemetry);

    const unsigned scale = quick ? 1 : 8;

    for (const unsigned batch : {1024u, 16384u}) {
        bench_oneshot_churn(json, batch, 24 * scale);
    }
    for (const unsigned pending : {256u, 4096u, 32768u}) {
        bench_pending_density(json, pending, quick ? 12 : 48);
    }
    // periodic_heavy keeps its full shape even under --quick: it is the
    // CI-gated scenario, and a longer run steadies its telemetry/plain
    // ratio. Size 64 dispatches about 24x fewer events per slice at a
    // lower cost per event, so it runs 24x the slices: both sizes then
    // take about 0.3 s on a 4-vCPU VM.
    for (const unsigned tasks : {64u, 1024u}) {
        bench_periodic_heavy(json, tasks, tasks == 64 ? 768 : 32, Time::us(2000));
    }
    bench_cancel_churn(json, 8192, 12 * scale);
    bench_node_second(json, quick ? Time::ms(200) : Time::sec(1));

    std::fputs(json.to_string().c_str(), stdout);
    if (!json_path.empty() && !json.write(json_path)) return 1;
    return 0;
}
