// Router behaviour over the in-process LocalTransport: content routing,
// connection pooling, replica failover, health ejection/readmission, the
// background prober, deadline budgets, and fleet metrics aggregation.
// RouterOverTcp runs the production path: a RouterServer over TcpTransport
// in front of two in-process SurveyServer shards, and a Router over
// TcpTransport in front of two shards scripted by the test.
#include "router/router.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/ctx.hpp"
#include "obs/trace.hpp"
#include "router/local_transport.hpp"
#include "router/server.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "util/minijson.hpp"
#include "util/sync.hpp"

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

enum Mode : int { kOk, kOverloaded, kUnknownExperiment, kSlowOverloaded };

/// How long a kSlowOverloaded shard works before it answers Overloaded.
constexpr std::chrono::milliseconds kSlowAttempt{120};

struct ShardSim {
    std::string name;
    std::atomic<int> mode{kOk};
    std::atomic<int> queries{0};
    std::atomic<std::uint64_t> last_trace_id{0};
    std::atomic<std::uint32_t> last_deadline_ms{0};
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
                        r.payload = "ok";
                        return r;
                    }
                    if (request.verb == Verb::Metrics) {
                        r.payload = kShardMetricsJson;
                        return r;
                    }
                    if (request.verb == Verb::Query) {
                        sim->queries.fetch_add(1);
                        sim->last_trace_id = request.trace_id;
                        sim->last_deadline_ms = request.deadline_ms;
                    }
                    if (sim->mode == kSlowOverloaded) {
                        std::this_thread::sleep_for(kSlowAttempt);
                    }
                    if (sim->mode == kOverloaded || sim->mode == kSlowOverloaded) {
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

TEST(RouterTest, LeaseDestroyedBetweenSendAndReceiveDropsItsConnection) {
    Fixture fx{1};
    const ShardEndpoint& endpoint = fx.endpoints[0];
    router::ConnectionPool pool{fx.transport, endpoint, router::TransportOptions{}};
    {
        auto lease = pool.acquire();
        lease.send_batch({query()});
    }  // its reply was never read: the connection must not be reused
    EXPECT_EQ(pool.idle_count(), 0u);
    {
        auto lease = pool.acquire();
        lease.send_batch({query(), query("other")});
        const std::vector<Response> responses = lease.receive_batch();
        ASSERT_EQ(responses.size(), 2u);
        EXPECT_EQ(responses[1].payload, "s0");
    }
    EXPECT_EQ(fx.transport.dials(endpoint.address()), 2u);  // dialed afresh
    EXPECT_EQ(pool.idle_count(), 1u);  // a fully read batch recycles
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

TEST(RouterTest, ProberThreadReadmitsAnEjectedShard) {
    // Same ejection as above, but readmission comes from the background
    // prober's `health` sweep -- nobody calls probe_now().
    Fixture fx{2};
    RouterConfig cfg = fx.config();
    cfg.probe_interval = std::chrono::milliseconds{5};
    Router router{FleetMap{fx.endpoints, {}}, fx.transport, cfg};
    const Request req = query();
    const auto replicas = replica_names(router, req);
    const std::string primary_addr = fx.address_of(replicas[0]);
    const auto primary_health = [&]() {
        for (const auto& h : router.shard_health()) {
            if (h.name == replicas[0]) return h;
        }
        return router::ShardHealth{};
    };

    fx.transport.set_down(primary_addr, true);
    EXPECT_TRUE(router.handle(req).ok());
    EXPECT_TRUE(router.handle(req).ok());
    ASSERT_TRUE(primary_health().ejected);

    fx.transport.set_down(primary_addr, false);
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds{10};
    while (primary_health().ejected && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds{2});
    }
    EXPECT_FALSE(primary_health().ejected);
    EXPECT_EQ(primary_health().readmissions, 1u);
    EXPECT_EQ(router.handle(req).payload, replicas[0]);
    router.stop();
}

TEST(RouterTest, DeadlineIsABudgetForTheWholeRoutedRequest) {
    // Both replicas work for kSlowAttempt and then answer Overloaded. A
    // 200 ms budget fits the primary's attempt and part of the replica's;
    // after that it is spent, so the router must stop retrying and say so.
    Fixture fx{2};
    RouterConfig cfg = fx.config();
    cfg.backoff_base = std::chrono::milliseconds{20};
    Router router{FleetMap{fx.endpoints, {}}, fx.transport, cfg};
    for (auto& sim : fx.sims) sim->mode = kSlowOverloaded;
    Request req = query();
    req.deadline_ms = 200;
    const auto replicas = replica_names(router, req);

    const Response response = router.handle(req);
    EXPECT_EQ(response.code, ErrorCode::DeadlineExceeded) << response.payload;

    const ShardSim& primary = fx.sim_named(replicas[0]);
    const ShardSim& replica = fx.sim_named(replicas[1]);
    EXPECT_EQ(primary.queries.load(), 1);
    EXPECT_EQ(replica.queries.load(), 1);
    EXPECT_EQ(router.stats().forwarded, 2u);
    // The first attempt gets the whole budget; the second only what the
    // first left of it.
    EXPECT_EQ(primary.last_deadline_ms.load(), 200u);
    EXPECT_GT(replica.last_deadline_ms.load(), 0u);
    EXPECT_LT(replica.last_deadline_ms.load(),
              200u - static_cast<std::uint32_t>(kSlowAttempt.count()) + 1);

    // A batch's rescue gets only what its group call left: the group's
    // attempt on the primary spends most of the budget, the rescue's one
    // attempt (the primary again) carries the rest, and nothing follows.
    for (auto& sim : fx.sims) sim->queries = 0;
    const std::vector<Response> batch = router.handle_batch({req});
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].code, ErrorCode::DeadlineExceeded) << batch[0].payload;
    EXPECT_EQ(primary.queries.load(), 2);
    EXPECT_EQ(replica.queries.load(), 0);
    EXPECT_LT(primary.last_deadline_ms.load(),
              200u - static_cast<std::uint32_t>(kSlowAttempt.count()) + 1);
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

// --- Trace propagation through failover ---------------------------------------

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

// --- The routed production path over real sockets ----------------------------

namespace {

/// Two SurveyServer shards on ephemeral ports, a Router over TcpTransport
/// with both shards in every replica set, and a RouterServer in front.
struct TcpFleet {
    std::vector<std::unique_ptr<service::SurveyServer>> shards;
    std::vector<ShardEndpoint> endpoints;
    router::TcpTransport transport;
    std::unique_ptr<Router> router;
    std::unique_ptr<router::RouterServer> front;

    TcpFleet() {
        for (unsigned i = 0; i < 2; ++i) {
            service::ServerConfig cfg;
            cfg.service.workers = 2;
            shards.push_back(std::make_unique<service::SurveyServer>(cfg));
            shards.back()->start();
            // append: GCC 12's -Wrestrict misfires on `"s" + std::string`.
            endpoints.push_back({std::string{"s"}.append(std::to_string(i)),
                                 "127.0.0.1", shards.back()->port()});
        }
        RouterConfig cfg;
        cfg.fleet.replicas = 2;
        cfg.probe_interval = std::chrono::milliseconds{0};
        cfg.backoff_base = std::chrono::milliseconds{0};
        router = std::make_unique<Router>(FleetMap{endpoints, cfg.fleet}, transport, cfg);
        front = std::make_unique<router::RouterServer>(*router);
        front->start();
    }

    ~TcpFleet() {
        front->stop();
        router->stop();
        for (auto& shard : shards) shard->stop();
    }

    /// `per_shard` quick whole-experiment queries whose primary is each
    /// shard, interleaved: the batch maps to both shards by construction.
    [[nodiscard]] std::vector<Request> batch(std::size_t per_shard) const {
        static constexpr const char* kCheap[] = {"fig3", "fig4", "fig5", "fig6", "fig7"};
        std::vector<std::vector<Request>> by_primary(shards.size());
        for (std::uint64_t seed = 1;; ++seed) {
            Request req;
            req.verb = Verb::Query;
            req.experiment = kCheap[seed % 5];
            req.point = "*";
            req.quick = true;
            req.seed = seed;
            auto& bucket = by_primary[router->fleet().primary(
                service::protocol::route_key(req))];
            if (bucket.size() < per_shard) bucket.push_back(std::move(req));
            bool full = true;
            for (const auto& b : by_primary) full = full && b.size() == per_shard;
            if (full) break;
        }
        std::vector<Request> out;
        for (std::size_t i = 0; i < per_shard; ++i) {
            for (const auto& b : by_primary) out.push_back(b[i]);
        }
        return out;
    }
};

/// What an unrouted, standalone service answers for `req`.
std::string standalone_payload(const Request& req) {
    static service::SurveyService reference{[] {
        service::ServiceConfig cfg;
        cfg.workers = 2;
        return cfg;
    }()};
    const Response response = reference.handle(req);
    EXPECT_TRUE(response.ok()) << response.payload_view();
    return std::string{response.payload_view()};
}

}  // namespace

TEST(RouterOverTcp, BatchThroughTheRouterMatchesAStandaloneService) {
    TcpFleet fleet;
    const std::vector<Request> window = fleet.batch(8);
    ASSERT_EQ(window.size(), 16u);

    service::ServiceClient client{"127.0.0.1", fleet.front->port()};
    const std::vector<Response> responses = client.call_pipelined(window);
    ASSERT_EQ(responses.size(), window.size());
    for (std::size_t i = 0; i < window.size(); ++i) {
        ASSERT_TRUE(responses[i].ok()) << i << ": " << responses[i].payload;
        EXPECT_EQ(responses[i].payload, standalone_payload(window[i]))
            << window[i].experiment << " seed " << window[i].seed;
    }
    const auto stats = fleet.router->stats();
    EXPECT_EQ(stats.queries, window.size());
    EXPECT_EQ(stats.failovers, 0u);
    EXPECT_EQ(stats.unavailable, 0u);
}

TEST(RouterOverTcp, DeadShardGroupIsRescuedOntoTheSurvivingReplica) {
    TcpFleet fleet;
    const std::vector<Request> window = fleet.batch(8);

    // Warm the pool: one routed query per shard leaves an idle upstream
    // connection to each.
    service::ServiceClient client{"127.0.0.1", fleet.front->port()};
    const auto warm = client.call_pipelined({window[0], window[1]});
    ASSERT_TRUE(warm[0].ok() && warm[1].ok());

    // Kill shard 0 under the pooled connection. Its group's batch call
    // dies mid-frame; every sub-request must fail over to shard 1.
    fleet.shards[0]->stop();
    const std::vector<Response> responses = client.call_pipelined(window);
    ASSERT_EQ(responses.size(), window.size());
    for (std::size_t i = 0; i < window.size(); ++i) {
        ASSERT_TRUE(responses[i].ok()) << i << ": " << responses[i].payload;
        EXPECT_EQ(responses[i].payload, standalone_payload(window[i]))
            << window[i].experiment << " seed " << window[i].seed;
    }

    const auto stats = fleet.router->stats();
    EXPECT_GT(stats.failovers, 0u);
    EXPECT_EQ(stats.unavailable, 0u);
    const router::ShardHealth& dead = stats.shards[0];
    EXPECT_TRUE(dead.ejected || dead.consecutive_failures > 0);
}

namespace {

/// The ends of a two-shard rendezvous: each shard reports its batch and
/// waits (2 s at most) until the other has reported one too.
struct Rendezvous {
    util::Mutex lock;
    util::CondVar cv;
    int arrived GUARDED_BY(lock) = 0;

    /// True when both batches arrived before the timeout.
    bool arrive_and_wait() {
        util::LockGuard guard{lock};
        ++arrived;
        cv.notify_all();
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{2};
        while (arrived < 2) {
            if (cv.wait_until(guard, deadline) == std::cv_status::timeout) break;
        }
        return arrived >= 2;
    }
};

/// A shard scripted by the test: a loopback listener whose one
/// connection reads a batch frame, meets the other shard at the
/// rendezvous, then answers every sub-request with its own name.
struct ScriptedShard {
    int listen_fd = -1;
    std::uint16_t port = 0;
    std::string name;
    bool saw_both = false;
    std::size_t batch_size = 0;
    std::thread thread;

    explicit ScriptedShard(std::string shard_name) : name{std::move(shard_name)} {
        listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
        EXPECT_EQ(::listen(listen_fd, 4), 0);
        socklen_t len = sizeof addr;
        EXPECT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
        port = ntohs(addr.sin_port);
    }
    ~ScriptedShard() {
        if (thread.joinable()) thread.join();
        ::close(listen_fd);
    }

    void serve(Rendezvous& rendezvous) {
        thread = std::thread{[this, &rendezvous] {
            const int fd = ::accept(listen_fd, nullptr, nullptr);
            ASSERT_GE(fd, 0);
            const auto frame = service::protocol::read_frame(fd);
            ASSERT_TRUE(frame.has_value());
            const auto batch = service::protocol::parse_batch(*frame);
            ASSERT_TRUE(batch.has_value());
            batch_size = batch->size();
            saw_both = rendezvous.arrive_and_wait();
            for (const Request& request : *batch) {
                Response response;
                response.payload = name;
                response.tag = request.tag;
                EXPECT_TRUE(service::protocol::write_frame(fd, response.encode()));
            }
            ::close(fd);
        }};
    }
};

}  // namespace

TEST(RouterOverTcp, ScattersEveryShardGroupBeforeGathering) {
    ScriptedShard s0{"s0"};
    ScriptedShard s1{"s1"};
    const std::vector<ShardEndpoint> endpoints{{"s0", "127.0.0.1", s0.port},
                                               {"s1", "127.0.0.1", s1.port}};
    RouterConfig cfg;
    cfg.probe_interval = std::chrono::milliseconds{0};
    cfg.backoff_base = std::chrono::milliseconds{0};
    router::TcpTransport transport;
    Router router{FleetMap{endpoints, cfg.fleet}, transport, cfg};

    // Two queries per shard, interleaved, so the batch has two groups.
    std::vector<Request> batch;
    std::vector<std::string> primary;
    std::size_t per_shard[2] = {0, 0};
    for (std::uint64_t seed = 1; per_shard[0] < 2 || per_shard[1] < 2; ++seed) {
        Request req = query();
        req.seed = seed;
        req.tag = seed;
        const std::size_t shard =
            router.fleet().primary(service::protocol::route_key(req));
        if (per_shard[shard] == 2) continue;
        ++per_shard[shard];
        primary.push_back(endpoints[shard].name);
        batch.push_back(std::move(req));
    }

    Rendezvous rendezvous;
    s0.serve(rendezvous);
    s1.serve(rendezvous);
    const std::vector<Response> responses = router.handle_batch(batch);
    s0.thread.join();
    s1.thread.join();

    // Sending one group and waiting on its reply before sending the next
    // leaves the first shard alone at the rendezvous until it times out.
    EXPECT_TRUE(s0.saw_both);
    EXPECT_TRUE(s1.saw_both);
    EXPECT_EQ(s0.batch_size, 2u);
    EXPECT_EQ(s1.batch_size, 2u);
    ASSERT_EQ(responses.size(), batch.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
        ASSERT_TRUE(responses[i].ok()) << i << ": " << responses[i].payload;
        EXPECT_EQ(responses[i].payload, primary[i]);
        EXPECT_EQ(responses[i].tag, batch[i].tag);
    }
    const auto stats = router.stats();
    EXPECT_EQ(stats.queries, batch.size());
    EXPECT_EQ(stats.forwarded, batch.size());
    EXPECT_EQ(stats.failovers, 0u);
}
