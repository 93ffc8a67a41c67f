// Isolation passes: each layer's public entry point timed on its own, on
// the workload's own specs, with no load running. The traced run composes
// these per-call costs with its client-side spans into the ledger.
#include <atomic>
#include <map>
#include <thread>

#include "bench.hpp"
#include "engine/blob.hpp"
#include "engine/engine.hpp"
#include "engine/result_cache.hpp"
#include "engine/survey_experiments.hpp"
#include "router/local_transport.hpp"
#include "router/router.hpp"
#include "router/server.hpp"
#include "router/upstream.hpp"
#include "service/hot_cache.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

namespace e2e {

namespace {

namespace engine = hsw::engine;
namespace service = hsw::service;
namespace router = hsw::router;
using Payload = std::shared_ptr<const std::string>;

std::atomic<std::size_t> g_sink{0};  // keeps timed results observable

/// Calls per repetition for sub-microsecond functions, so one repetition
/// spans milliseconds rather than clock ticks.
constexpr std::size_t kCheapCalls = 8192;

/// Median over `reps` repetitions of the mean time (ns) of one call of
/// `f(i)`; a repetition sweeps i over [0, calls) until it has made at least
/// `min_calls` calls (pass 1 for calls that take tens of microseconds).
template <class F>
double per_call_ns(std::size_t calls, int reps, F&& f, std::size_t min_calls = kCheapCalls) {
    const std::size_t sweeps = (std::max(calls, min_calls) + calls - 1) / calls;
    std::vector<double> per;
    for (int r = 0; r < reps; ++r) {
        std::size_t sink = 0;
        const auto t0 = Clock::now();
        for (std::size_t s = 0; s < sweeps; ++s) {
            for (std::size_t i = 0; i < calls; ++i) sink += f(i);
        }
        const auto t1 = Clock::now();
        g_sink.fetch_add(sink, std::memory_order_relaxed);
        per.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                      static_cast<double>(calls * sweeps));
    }
    return median(per);
}

/// Median round trip (us) of `calls` request/reply exchanges.
template <class F>
double round_trip_us(std::size_t calls, F&& exchange) {
    std::vector<double> samples;
    for (std::size_t i = 0; i < calls; ++i) {
        const auto t0 = Clock::now();
        exchange(i);
        samples.push_back(us_between(t0, Clock::now()));
    }
    return median(samples);
}

/// One 16-request batch frame over `conn`; false on any failed reply.
bool batch_round_trip(const Conn& conn, const std::string& frame, std::size_t count) {
    if (!conn.send(frame)) return false;
    bool ok = true;
    for (std::size_t j = 0; j < count; ++j) {
        const auto bytes = conn.recv();
        if (!bytes) return false;
        const auto reply = protocol::parse_response(*bytes);
        ok = ok && reply && reply->ok();
    }
    return ok;
}

}  // namespace

Isolation run_isolation(const Options& options, const std::vector<Spec>& specs,
                        bool router_counts, Report& report) {
    Isolation iso;
    const int reps = options.smoke ? 3 : 9;
    const std::size_t n = specs.size();
    const auto dir = options.work_dir / "isolation-disk";
    std::filesystem::remove_all(dir);
    service::ServerConfig cfg;
    cfg.service.disk_cache_dir = dir;

    std::vector<protocol::Request> requests;
    for (std::size_t i = 0; i < n; ++i) requests.push_back(specs[i].request(i + 1));

    // Prime the disk tier: a first server computes and stores every job.
    {
        service::SurveyServer prime{cfg};
        prewarm([&](const Spec& s) { return prime.service().query(s.request()).ok(); }, specs,
                options.generator_threads(), report);
    }

    // --- service: a second server on the same directory starts with a
    // cold hot cache, so each first query is an uncontended disk hit.
    service::SurveyServer server{cfg};
    server.start();
    auto& svc = server.service();
    std::vector<Payload> payloads(n);
    std::vector<double> disk_us;
    for (std::size_t i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        auto result = svc.query(requests[i]);
        disk_us.push_back(us_between(t0, Clock::now()));
        if (!result.ok() || result.source != protocol::Source::DiskCache) {
            report.fail("isolation: first query was not a disk hit");
        }
        payloads[i] = result.payload ? result.payload : std::make_shared<const std::string>();
    }
    iso.query_disk_us = median(disk_us);
    iso.query_hot_us = per_call_ns(n, reps, [&](std::size_t i) {
                           const auto r = svc.query(requests[i]);
                           return r.payload ? r.payload->size() : 0;
                       }) / 1e3;
    for (const auto& request : requests) {
        if (!svc.try_handle_fast(request)) report.fail("isolation: hot request missed the fast path");
    }
    iso.fast_path_ns = per_call_ns(n, reps, [&](std::size_t i) {
        const auto r = svc.try_handle_fast(requests[i]);
        return r ? r->payload_view().size() : 0;
    });

    // --- protocol
    std::vector<std::string> encoded, wire;
    std::vector<protocol::Response> responses;
    for (std::size_t i = 0; i < n; ++i) {
        encoded.push_back(requests[i].encode());
        protocol::Response response;
        response.source = protocol::Source::HotCache;
        response.shared_payload = payloads[i];
        response.tag = requests[i].tag;
        wire.push_back(response.encode_header() + *payloads[i]);
        responses.push_back(std::move(response));
    }
    iso.route_key_ns = per_call_ns(n, reps, [&](std::size_t i) {
        return protocol::route_key(requests[i]).size();
    });
    iso.encode_request_ns = per_call_ns(n, reps, [&](std::size_t i) {
        return requests[i].encode().size();
    });
    iso.parse_request_ns = per_call_ns(n, reps, [&](std::size_t i) {
        const auto r = protocol::parse_request(encoded[i]);
        return r ? r->experiment.size() : 0;
    });
    iso.encode_header_ns = per_call_ns(n, reps, [&](std::size_t i) {
        return responses[i].encode_header().size();
    });
    iso.parse_response_ns = per_call_ns(n, reps, [&](std::size_t i) {
        const auto r = protocol::parse_response(wire[i]);
        return r ? r->payload.size() : 0;
    });
    constexpr std::size_t kBatch = 16;
    const std::size_t nbatch = std::max<std::size_t>(1, n / kBatch);
    std::vector<std::vector<protocol::Request>> batches(nbatch);
    std::vector<std::string> batch_frames;
    for (std::size_t b = 0; b < nbatch; ++b) {
        for (std::size_t j = 0; j < kBatch; ++j) {
            protocol::Request r = requests[(b * kBatch + j) % n];
            r.tag = j + 1;
            batches[b].push_back(std::move(r));
        }
        batch_frames.push_back(protocol::encode_batch(batches[b]));
    }
    iso.encode_batch_us = per_call_ns(nbatch, reps, [&](std::size_t b) {
                              return protocol::encode_batch(batches[b]).size();
                          }, kCheapCalls / kBatch) / 1e3;
    iso.parse_batch_us = per_call_ns(nbatch, reps, [&](std::size_t b) {
                             const auto r = protocol::parse_batch(batch_frames[b]);
                             return r ? r->size() : 0;
                         }, kCheapCalls / kBatch) / 1e3;

    // --- hot cache, standalone, keyed like the service's response cache
    service::HotCache cache{service::HotCacheConfig{}};
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < n; ++i) {
        keys.push_back(protocol::route_key(requests[i]));
        (void)cache.insert_shared(keys[i], payloads[i]);
    }
    iso.hot_lookup_ns = per_call_ns(n, reps, [&](std::size_t i) {
        const auto v = cache.lookup(keys[i]);
        return v ? v->size() : 0;
    });

    // --- engine disk tier: the primed entries of every job behind the specs
    std::map<std::uint64_t, std::vector<engine::Experiment>> registries;
    std::vector<const engine::Job*> jobs;
    std::vector<std::size_t> first_job(n + 1, 0);  // spec i owns jobs [first_job[i], first_job[i+1])
    for (std::size_t i = 0; i < n; ++i) {
        first_job[i] = jobs.size();
        first_job[i + 1] = jobs.size();
        auto& registry = registries[specs[i].seed];
        if (registry.empty()) {
            engine::SurveyTuning tuning = engine::SurveyTuning::quick();
            tuning.seed = specs[i].seed;
            registry = engine::survey_experiments(tuning);
        }
        const engine::Experiment* experiment = engine::find_experiment(registry, specs[i].experiment);
        if (!experiment) {
            report.fail("isolation: unknown experiment " + specs[i].experiment);
            continue;
        }
        for (const auto& job : experiment->jobs) jobs.push_back(&job);
        first_job[i + 1] = jobs.size();
    }
    const engine::ResultCache disk{dir};
    const engine::ResultCache scratch{options.work_dir / "isolation-store"};
    std::vector<std::string> job_payloads;
    for (const engine::Job* job : jobs) {
        auto payload = disk.load(job->spec);
        if (!payload) report.fail("isolation: primed job missing from disk: " + job->spec.label());
        job_payloads.push_back(payload ? std::move(*payload) : std::string{});
    }
    if (!jobs.empty()) {
        iso.load_us = per_call_ns(jobs.size(), reps, [&](std::size_t j) {
                          const auto p = disk.load(jobs[j]->spec);
                          return p ? p->size() : 0;
                      }, 1) / 1e3;
        iso.run_job_disk_us = per_call_ns(jobs.size(), reps, [&](std::size_t j) {
                                  const auto r = engine::run_job(*jobs[j], &disk);
                                  if (r.source != engine::JobSource::DiskCache) {
                                      report.fail("isolation: run_job missed the disk cache");
                                  }
                                  return r.payload.size();
                              }, 1) / 1e3;
        iso.store_us = per_call_ns(jobs.size(), reps, [&](std::size_t j) {
                           scratch.store(jobs[j]->spec, job_payloads[j]);
                           return job_payloads[j].size();
                       }, 1) / 1e3;
        // Each spec's job payloads packed as one blob, as a whole-experiment
        // reply is.
        std::vector<engine::BlobSections> sections(n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = first_job[i]; j < first_job[i + 1]; ++j) {
                sections[i].emplace_back("job:" + jobs[j]->spec.point, job_payloads[j]);
            }
        }
        iso.pack_us = per_call_ns(n, reps, [&](std::size_t i) {
                          return engine::pack_sections(sections[i]).size();
                      }) / 1e3;
    }

    // --- reactor: bare ping and hot-query round trips over one connection
    const std::size_t trips = options.smoke ? 200 : 2000;
    {
        const Conn conn{server.port()};
        protocol::Request ping;
        ping.verb = protocol::Verb::Ping;
        const std::string ping_frame = ping.encode();
        iso.ping_rtt_us = round_trip_us(trips, [&](std::size_t) {
            if (!conn.send(ping_frame) || !conn.recv()) report.fail("isolation: ping failed");
        });
        iso.hot_rtt_us = round_trip_us(trips, [&](std::size_t i) {
            const auto& request = requests[i % n];
            if (!conn.send(request.encode())) {
                report.fail("isolation: send failed");
                return;
            }
            const auto bytes = conn.recv();
            const auto reply = bytes ? protocol::parse_response(*bytes) : std::nullopt;
            if (!reply || !reply->ok()) report.fail("isolation: hot query failed");
        });
    }
    iso.residual_us = iso.hot_rtt_us - (iso.encode_request_ns + iso.parse_request_ns +
                                        iso.fast_path_ns + iso.encode_header_ns +
                                        iso.parse_response_ns) / 1e3;

    // --- router: in-process overhead over LocalTransport, then one TCP hop
    router::RouterConfig rc;
    rc.probe_interval = std::chrono::milliseconds{0};
    {
        router::LocalTransport local;
        const auto handler = [&svc](const protocol::Request& r) { return svc.handle(r); };
        local.add_endpoint("127.0.0.1:1", handler);
        local.add_endpoint("127.0.0.1:2", handler);
        router::Router local_router{
            router::FleetMap{std::vector<router::ShardEndpoint>{{"a", "127.0.0.1", 1},
                                                                {"b", "127.0.0.1", 2}}},
            local, rc};
        const double direct = per_call_ns(n, reps, [&](std::size_t i) {
            return svc.handle(requests[i]).payload_view().size();
        });
        const double routed = per_call_ns(n, reps, [&](std::size_t i) {
            return local_router.handle(requests[i]).payload_view().size();
        });
        iso.router_local_overhead_us = (routed - direct) / 1e3;
    }
    {
        router::TcpTransport tcp;
        router::Router tcp_router{
            router::FleetMap{std::vector<router::ShardEndpoint>{
                {"s0", "127.0.0.1", server.port()}}},
            tcp, rc};
        router::RouterServer front{tcp_router};
        front.start();
        const auto before = tcp_router.stats();
        const Conn to_router{front.port()};
        const Conn to_shard{server.port()};
        std::vector<double> routed, direct;
        const std::size_t windows = options.smoke ? 30 : 300;
        for (std::size_t w = 0; w < windows; ++w) {
            const std::string& frame = batch_frames[w % nbatch];
            for (int side = 0; side < 2; ++side) {
                const bool via_router = (side == 0) == (w % 2 == 0);
                const auto t0 = Clock::now();
                if (!batch_round_trip(via_router ? to_router : to_shard, frame, kBatch)) {
                    report.fail("isolation: batch window failed");
                }
                (via_router ? routed : direct).push_back(us_between(t0, Clock::now()));
            }
        }
        iso.router_hop_us = median(routed) - median(direct);
        if (router_counts) add_router_counts(before, tcp_router.stats(), report);
    }
    server.stop();
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(options.work_dir / "isolation-store");

    // Per-call costs report their repetition count; each is a median.
    const auto calls = static_cast<std::uint64_t>(reps);
    report.add_layer("service.protocol.route_key_ns", iso.route_key_ns, "ns", calls);
    report.add_layer("service.protocol.encode_request_ns", iso.encode_request_ns, "ns", calls);
    report.add_layer("service.protocol.parse_request_ns", iso.parse_request_ns, "ns", calls);
    report.add_layer("service.protocol.encode_header_ns", iso.encode_header_ns, "ns", calls);
    report.add_layer("service.protocol.parse_response_ns", iso.parse_response_ns, "ns", calls);
    report.add_layer("service.protocol.encode_batch_us", iso.encode_batch_us, "us", calls);
    report.add_layer("service.protocol.parse_batch_us", iso.parse_batch_us, "us", calls);
    report.add_layer("service.hot_cache.lookup_ns", iso.hot_lookup_ns, "ns", calls);
    report.add_layer("service.fast_path_ns", iso.fast_path_ns, "ns", calls);
    report.add_layer("service.query_hot_us", iso.query_hot_us, "us", calls);
    report.add_layer("service.query_disk_us", iso.query_disk_us, "us", n);
    report.add_layer("engine.result_cache.load_us", iso.load_us, "us", calls);
    report.add_layer("engine.result_cache.store_us", iso.store_us, "us", calls);
    report.add_layer("engine.run_job_disk_us", iso.run_job_disk_us, "us", calls);
    report.add_layer("engine.blob.pack_us", iso.pack_us, "us", calls);
    report.add_layer("reactor.ping_rtt_us", iso.ping_rtt_us, "us", trips);
    report.add_layer("reactor.residual_us", iso.residual_us, "us", trips);
    report.add_extra("reactor.hot_rtt_us", iso.hot_rtt_us, "us", trips);
    report.add_layer("router.local_overhead_us", iso.router_local_overhead_us, "us", calls);
    report.add_layer("router.hop_us", iso.router_hop_us, "us", options.smoke ? 30 : 300);

    char line[200];
    std::snprintf(line, sizeof line,
                  "in-process hot query %.3f us: route_key %.3f us (%.0f%%), hot lookup %.3f us",
                  iso.query_hot_us, iso.route_key_ns / 1e3,
                  100.0 * iso.route_key_ns / 1e3 / iso.query_hot_us, iso.hot_lookup_ns / 1e3);
    report.ledger.emplace_back(line);
    std::snprintf(line, sizeof line,
                  "disk tier per job: ResultCache::load %.3f us, run_job (disk hit) %.3f us, "
                  "store %.3f us; uncontended disk query %.3f us",
                  iso.load_us, iso.run_job_disk_us, iso.store_us, iso.query_disk_us);
    report.ledger.emplace_back(line);
    std::snprintf(line, sizeof line,
                  "reactor: ping rtt %.3f us, hot query rtt %.3f us, residual after stages %.3f us",
                  iso.ping_rtt_us, iso.hot_rtt_us, iso.residual_us);
    report.ledger.emplace_back(line);
    return iso;
}

}  // namespace e2e
