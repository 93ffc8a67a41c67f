// Router behaviour over the in-process LocalTransport: content routing,
// connection pooling, replica failover, health ejection/readmission, the
// v1.1 legacy capability probe, and fleet metrics aggregation.
#include "router/router.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "obs/ctx.hpp"
#include "obs/trace.hpp"
#include "router/local_transport.hpp"
#include "service/protocol.hpp"
#include "util/minijson.hpp"

using namespace hsw;
using router::FleetMap;
using router::LocalTransport;
using router::Router;
using router::RouterConfig;
using router::ShardEndpoint;
using service::protocol::ErrorCode;
using service::protocol::MetricsFormat;
using service::protocol::Request;
using service::protocol::Response;
using service::protocol::Verb;

namespace {

enum Mode : int { kOk, kOverloaded, kUnknownExperiment, kLegacyV11, kPreV14 };

struct ShardSim {
    std::string name;
    std::atomic<int> mode{kOk};
    std::atomic<int> queries{0};
    std::atomic<std::uint64_t> last_trace_id{0};
};

constexpr const char* kShardMetricsJson =
    "{\"counters\":{\"fixture_requests\":3},\"gauges\":{},\"histograms\":{}}";

struct Fixture {
    LocalTransport transport;
    std::vector<std::unique_ptr<ShardSim>> sims;
    std::vector<ShardEndpoint> endpoints;

    explicit Fixture(unsigned shards) {
        for (unsigned i = 0; i < shards; ++i) {
            auto sim = std::make_unique<ShardSim>();
            // append: GCC 12's -Wrestrict misfires on `"s" + std::string`.
            sim->name = std::string{"s"}.append(std::to_string(i));
            endpoints.push_back({sim->name, "127.0.0.1",
                                 static_cast<std::uint16_t>(9000 + i)});
            transport.add_endpoint(
                endpoints.back().address(),
                [sim = sim.get()](const Request& request) {
                    Response r;
                    if (request.verb == Verb::Health) {
                        if (sim->mode == kLegacyV11) {
                            r.code = ErrorCode::MalformedRequest;
                            r.payload = "unknown verb";
                        } else {
                            r.payload = "ok";
                        }
                        return r;
                    }
                    if (request.verb == Verb::Metrics) {
                        r.payload = kShardMetricsJson;
                        return r;
                    }
                    if (request.verb == Verb::Query) {
                        sim->queries.fetch_add(1);
                        sim->last_trace_id = request.trace_id;
                    }
                    if (sim->mode == kPreV14 && request.has_trace()) {
                        r.code = ErrorCode::MalformedRequest;
                        r.payload = "unknown request field: trace";
                        return r;
                    }
                    if (sim->mode == kOverloaded) {
                        r.code = ErrorCode::Overloaded;
                        r.payload = "queue full";
                        return r;
                    }
                    if (sim->mode == kUnknownExperiment) {
                        r.code = ErrorCode::UnknownExperiment;
                        r.payload = "no such experiment";
                        return r;
                    }
                    r.payload = sim->name;  // who served this query
                    return r;
                });
            sims.push_back(std::move(sim));
        }
    }

    /// Deterministic test config: no background prober, no backoff sleeps.
    RouterConfig config() const {
        RouterConfig cfg;
        cfg.probe_interval = std::chrono::milliseconds{0};
        cfg.backoff_base = std::chrono::milliseconds{0};
        cfg.eject_after = 2;
        return cfg;
    }

    Router make_router() { return Router{FleetMap{endpoints, {}}, transport, config()}; }

    ShardSim& sim_named(const std::string& name) {
        for (auto& s : sims) {
            if (s->name == name) return *s;
        }
        throw std::logic_error{"no sim " + name};
    }

    std::string address_of(const std::string& name) {
        for (const auto& ep : endpoints) {
            if (ep.name == name) return ep.address();
        }
        throw std::logic_error{"no endpoint " + name};
    }
};

Request query(const std::string& point = "all") {
    Request req;
    req.verb = Verb::Query;
    req.experiment = "fig3";
    req.point = point;
    return req;
}

/// Names of the query's replica set, primary first.
std::vector<std::string> replica_names(const Router& router, const Request& req) {
    const auto key = service::protocol::route_key(req);
    std::vector<std::string> out;
    for (const std::size_t idx : router.fleet().replica_set(key)) {
        out.push_back(router.fleet().shards()[idx].name);
    }
    return out;
}

}  // namespace

TEST(RouterTest, RoutesByContentAndReusesPooledConnections) {
    Fixture fx{2};
    Router router = fx.make_router();
    const Request req = query();
    const auto replicas = replica_names(router, req);

    const Response first = router.handle(req);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.payload, replicas[0]);  // primary served it

    const Response second = router.handle(req);
    EXPECT_EQ(second.payload, replicas[0]);

    // Steady state is zero dials: both calls rode one pooled connection.
    const std::string primary_addr = fx.address_of(replicas[0]);
    EXPECT_EQ(fx.transport.dials(primary_addr), 1u);
    EXPECT_EQ(fx.transport.calls(primary_addr), 2u);

    const auto stats = router.stats();
    EXPECT_EQ(stats.queries, 2u);
    EXPECT_EQ(stats.forwarded, 2u);
    EXPECT_EQ(stats.failovers, 0u);
}

TEST(RouterTest, TransportFailureFailsOverToReplica) {
    Fixture fx{2};
    Router router = fx.make_router();
    const Request req = query();
    const auto replicas = replica_names(router, req);

    fx.transport.set_down(fx.address_of(replicas[0]), true);
    const Response response = router.handle(req);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.payload, replicas[1]);

    const auto stats = router.stats();
    EXPECT_EQ(stats.failovers, 1u);
    EXPECT_EQ(stats.unavailable, 0u);
}

TEST(RouterTest, OverloadedFailsOverButAuthoritativeErrorsReturnAsIs) {
    Fixture fx{2};
    Router router = fx.make_router();
    const Request req = query();
    const auto replicas = replica_names(router, req);

    // Overloaded is a property of one replica's queue; the other can help.
    fx.sim_named(replicas[0]).mode = kOverloaded;
    const Response ok = router.handle(req);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.payload, replicas[1]);

    // UnknownExperiment is a property of the request; no failover, one
    // upstream attempt only.
    const auto before = router.stats().forwarded;
    fx.sim_named(replicas[0]).mode = kUnknownExperiment;
    const Response err = router.handle(req);
    EXPECT_EQ(err.code, ErrorCode::UnknownExperiment);
    EXPECT_EQ(router.stats().forwarded, before + 1);
}

TEST(RouterTest, ExhaustedReplicaSetReturnsUnavailable) {
    Fixture fx{2};
    Router router = fx.make_router();
    const Request req = query();

    for (const auto& ep : fx.endpoints) fx.transport.set_down(ep.address(), true);
    const Response response = router.handle(req);
    EXPECT_EQ(response.code, ErrorCode::Unavailable);

    const auto stats = router.stats();
    EXPECT_EQ(stats.unavailable, 1u);
    // max_passes=3 replica-set walks => two backoff passes between them.
    EXPECT_EQ(stats.retry_passes, 2u);
}

TEST(RouterTest, AllOverloadedReportsTheHonestUpstreamError) {
    Fixture fx{2};
    Router router = fx.make_router();
    for (auto& sim : fx.sims) sim->mode = kOverloaded;
    const Response response = router.handle(query());
    // Exhaustion with live-but-overloaded shards keeps the shard's answer
    // instead of masking it as a transport outage.
    EXPECT_EQ(response.code, ErrorCode::Overloaded);
}

TEST(RouterTest, RepeatedFailuresEjectAndProbeReadmits) {
    Fixture fx{2};
    Router router = fx.make_router();
    const Request req = query();
    const auto replicas = replica_names(router, req);
    const std::string primary_addr = fx.address_of(replicas[0]);

    // eject_after=2: each routed query fails the primary once before the
    // replica serves it.
    fx.transport.set_down(primary_addr, true);
    EXPECT_TRUE(router.handle(req).ok());
    EXPECT_TRUE(router.handle(req).ok());

    auto health = router.shard_health();
    const auto primary_health = [&]() {
        for (const auto& h : health) {
            if (h.name == replicas[0]) return h;
        }
        return router::ShardHealth{};
    };
    EXPECT_TRUE(primary_health().ejected);
    EXPECT_EQ(primary_health().ejections, 1u);

    // Ejected shards are skipped entirely: no new dial attempts.
    const auto dials_when_ejected = fx.transport.dials(primary_addr);
    EXPECT_TRUE(router.handle(req).ok());
    EXPECT_EQ(fx.transport.dials(primary_addr), dials_when_ejected);

    // Shard comes back; a probe sweep readmits it and routing resumes.
    fx.transport.set_down(primary_addr, false);
    router.probe_now();
    health = router.shard_health();
    EXPECT_FALSE(primary_health().ejected);
    EXPECT_EQ(primary_health().readmissions, 1u);
    EXPECT_EQ(router.handle(req).payload, replicas[0]);
}

TEST(RouterTest, LegacyV11ShardIsProbedViaMetricsFallback) {
    Fixture fx{2};
    Router router = fx.make_router();
    const Request req = query();
    const auto replicas = replica_names(router, req);
    const std::string primary_addr = fx.address_of(replicas[0]);

    // The primary is an old v1.1 build: it serves queries but answers the
    // v1.2 `health` verb with MalformedRequest("unknown verb").
    fx.sim_named(replicas[0]).mode = kLegacyV11;

    // Eject it via transport failures, then bring it back.
    fx.transport.set_down(primary_addr, true);
    EXPECT_TRUE(router.handle(req).ok());
    EXPECT_TRUE(router.handle(req).ok());
    fx.transport.set_down(primary_addr, false);

    // The probe tries `health`, learns the peer is legacy, and proves
    // liveness through `metrics` on the same connection.
    router.probe_now();
    for (const auto& h : router.shard_health()) {
        if (h.name == replicas[0]) {
            EXPECT_FALSE(h.ejected);
            EXPECT_TRUE(h.legacy);
            EXPECT_EQ(h.readmissions, 1u);
        }
    }
}

TEST(RouterTest, AllReplicasEjectedStillTriesRatherThanFailingBlind) {
    Fixture fx{2};
    Router router = fx.make_router();
    const Request req = query();

    // Run both shards to ejection...
    for (const auto& ep : fx.endpoints) fx.transport.set_down(ep.address(), true);
    EXPECT_EQ(router.handle(req).code, ErrorCode::Unavailable);
    for (const auto& h : router.shard_health()) EXPECT_TRUE(h.ejected);

    // ...then recover them WITHOUT a probe pass. Routing must still try
    // (and succeed), because skipping every ejected replica would turn a
    // recovered fleet into a permanent outage.
    for (const auto& ep : fx.endpoints) fx.transport.set_down(ep.address(), false);
    EXPECT_TRUE(router.handle(req).ok());
}

TEST(RouterTest, MetricsVerbAggregatesTheWholeFleet) {
    Fixture fx{2};
    Router router = fx.make_router();

    Request req;
    req.verb = Verb::Metrics;
    req.format = MetricsFormat::Json;
    const Response response = router.handle(req);
    ASSERT_TRUE(response.ok());

    // Merged top level: both shards' fixture counter summed.
    EXPECT_NE(response.payload.find("\"fixture_requests\":6"), std::string::npos)
        << response.payload;
    // Per-shard breakdown plus the router's own pseudo-shard.
    EXPECT_NE(response.payload.find("\"shards\":{"), std::string::npos);
    EXPECT_NE(response.payload.find("\"s0\":{"), std::string::npos);
    EXPECT_NE(response.payload.find("\"s1\":{"), std::string::npos);
    EXPECT_NE(response.payload.find("\"router\":{"), std::string::npos);
}

TEST(RouterTest, ControlVerbsAnswerLocally) {
    Fixture fx{2};
    Router router = fx.make_router();

    EXPECT_EQ(router.handle([] { Request r; r.verb = Verb::Ping; return r; }()).payload,
              "pong");
    EXPECT_EQ(
        router.handle([] { Request r; r.verb = Verb::Health; return r; }()).payload,
        "ok");
    EXPECT_NE(
        router.handle([] { Request r; r.verb = Verb::Stats; return r; }())
            .payload.find("router.queries 0"),
        std::string::npos);

    EXPECT_FALSE(router.shutdown_requested());
    EXPECT_EQ(
        router.handle([] { Request r; r.verb = Verb::Shutdown; return r; }()).payload,
        "draining");
    EXPECT_TRUE(router.shutdown_requested());
    EXPECT_EQ(
        router.handle([] { Request r; r.verb = Verb::Health; return r; }()).payload,
        "draining");

    // None of that touched a shard.
    for (const auto& ep : fx.endpoints) {
        EXPECT_EQ(fx.transport.calls(ep.address()), 0u);
    }
}

// --- v1.4: trace propagation through failover --------------------------------

namespace {

/// Parsed-enough view of the exported span ring for trace assertions.
struct SpanView {
    std::string name;
    std::string trace_id;
    double retry = 0;
};

std::vector<SpanView> exported_span_views() {
    const std::string json = obs::trace::export_chrome_json();
    std::string error;
    const auto doc = hsw::util::json::parse(json, &error);
    EXPECT_TRUE(doc.has_value()) << error;
    std::vector<SpanView> out;
    if (!doc) return out;
    for (const auto& ev : doc->find("traceEvents")->as_array()) {
        const auto* ph = ev.find("ph");
        if (!ph || !ph->is_string() || ph->as_string() != "X") continue;
        SpanView v;
        v.name = ev.find("name")->as_string();
        if (const auto* args = ev.find("args")) {
            if (const auto* tid = args->find("trace_id")) {
                if (tid->is_string()) v.trace_id = tid->as_string();
            }
            v.retry = args->number_or("retry", 0);
        }
        out.push_back(std::move(v));
    }
    return out;
}

}  // namespace

TEST(RouterTest, FailoverKeepsTraceIdMarksRetryAndForcesSampling) {
    obs::trace::enable();
    Fixture fx{2};
    Router router = fx.make_router();
    const Request req = query();
    const auto replicas = replica_names(router, req);
    fx.transport.set_down(fx.address_of(replicas[0]), true);

    const auto root = obs::trace::make_root(true);
    {
        obs::trace::ContextScope scope{root};
        const Response response = router.handle(req);
        ASSERT_TRUE(response.ok());
        EXPECT_EQ(response.payload, replicas[1]);
        // The failover forced the request: the completion point (access
        // log, downstream hops) must see the tail-keep override.
        EXPECT_TRUE(obs::trace::current_context().forced());
    }
    obs::trace::disable();

    // The surviving replica served the SAME trace, not a fresh one.
    char want_trace[17];
    std::snprintf(want_trace, sizeof want_trace, "%016llx",
                  static_cast<unsigned long long>(root.trace_id));
    EXPECT_EQ(fx.sim_named(replicas[1]).last_trace_id.load(), root.trace_id);

    // Span tree: router.route plus one upstream.call per attempt, all
    // under the root's trace_id; the failover attempt is marked retry=1.
    const auto spans = exported_span_views();
    obs::trace::clear();
    std::size_t routes = 0, attempts = 0, retries = 0;
    for (const auto& span : spans) {
        if (span.name == "router.route") {
            ++routes;
            EXPECT_EQ(span.trace_id, want_trace);
        }
        if (span.name == "upstream.call") {
            ++attempts;
            EXPECT_EQ(span.trace_id, want_trace);
            if (span.retry > 0) {
                ++retries;
                EXPECT_EQ(span.retry, 1.0);
            }
        }
    }
    EXPECT_EQ(routes, 1u);
    EXPECT_EQ(attempts, 2u);
    EXPECT_EQ(retries, 1u);
}

TEST(RouterTest, PreV14ShardFallsBackThroughTheLeaseSeam) {
    // The shard rejects traced requests with the capability probe answer.
    // The pooled connection's Lease must strip, retry once, memoize, and
    // never probe again on that connection.
    Fixture fx{1};
    for (auto& sim : fx.sims) sim->mode = kPreV14;
    Router router = fx.make_router();
    const Request req = query();

    const auto root = obs::trace::make_root(true);
    obs::trace::ContextScope scope{root};
    const Response first = router.handle(req);
    ASSERT_TRUE(first.ok()) << first.payload;
    // The serving call arrived stripped.
    EXPECT_EQ(fx.sims[0]->last_trace_id.load(), 0u);
    // Probe + stripped retry = 2 upstream calls.
    EXPECT_EQ(fx.sims[0]->queries.load(), 2);

    // Second traced request: the memo skips the probe round-trip.
    const Response second = router.handle(req);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(fx.sims[0]->queries.load(), 3);
    EXPECT_EQ(fx.sims[0]->last_trace_id.load(), 0u);

    // No failover was charged for the capability fallback.
    EXPECT_EQ(router.stats().failovers, 0u);
}

TEST(RouterTest, V14ShardSeesTheRoutedTraceContext) {
    Fixture fx{1};
    Router router = fx.make_router();
    const Request req = query();

    const auto root = obs::trace::make_root(true);
    obs::trace::ContextScope scope{root};
    const Response response = router.handle(req);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(fx.sims[0]->last_trace_id.load(), root.trace_id);
    EXPECT_EQ(fx.sims[0]->queries.load(), 1);
}
