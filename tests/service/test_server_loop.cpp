// SurveyServer: loopback round trips, malformed-frame handling, connection
// admission, backpressure, and the shutdown verb.
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "obs/ctx.hpp"
#include "obs/trace.hpp"

using namespace hsw;
using namespace hsw::service;

namespace {

/// Server over a tiny synthetic registry so every test query is instant.
ServerConfig fast_config() {
    ServerConfig cfg;
    cfg.service.workers = 2;
    cfg.service.registry_factory = [](bool /*quick*/) {
        engine::Experiment e;
        e.name = "echo";
        e.description = "one instant point";
        engine::Job job;
        job.spec.experiment = "echo";
        job.spec.point = "all";
        job.run = [](const engine::ExperimentSpec& spec) {
            return "echo seed=" + std::to_string(spec.job_seed());
        };
        e.jobs.push_back(std::move(job));
        e.assemble = [](const std::vector<std::string>& payloads) {
            return std::vector<engine::Artifact>{
                {"echo.csv", engine::ArtifactKind::Csv, payloads.at(0)}};
        };
        return std::vector<engine::Experiment>{std::move(e)};
    };
    return cfg;
}

/// Blocking loopback connection; a nonzero `rcvbuf` shrinks the socket's
/// receive buffer before connect().
int connect_raw(std::uint16_t port, int rcvbuf = 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    if (rcvbuf > 0) {
        EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf), 0);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    return fd;
}

}  // namespace

TEST(ServerLoop, PingRoundTripOverLoopback) {
    SurveyServer server{fast_config()};
    server.start();

    ServiceClient client{"127.0.0.1", server.port()};
    protocol::Request ping;
    ping.verb = protocol::Verb::Ping;
    const auto response = client.call(ping);
    EXPECT_TRUE(response.ok());
    EXPECT_EQ(response.payload, "pong");
    server.stop();
}

TEST(ServerLoop, QueryRoundTripAndPipelining) {
    SurveyServer server{fast_config()};
    server.start();

    ServiceClient client{"127.0.0.1", server.port()};
    protocol::Request req;
    req.verb = protocol::Verb::Query;
    req.experiment = "echo";
    req.point = "all";

    // Several requests down one connection; the second answers from the
    // hot cache with identical bytes.
    const auto first = client.call(req);
    ASSERT_TRUE(first.ok()) << first.payload;
    EXPECT_EQ(first.source, protocol::Source::Computed);
    const auto second = client.call(req);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.source, protocol::Source::HotCache);
    EXPECT_EQ(first.payload, second.payload);
    server.stop();
}

TEST(ServerLoop, UnknownExperimentComesBackStructured) {
    SurveyServer server{fast_config()};
    server.start();

    ServiceClient client{"127.0.0.1", server.port()};
    protocol::Request req;
    req.verb = protocol::Verb::Query;
    req.experiment = "no-such-thing";
    const auto response = client.call(req);
    EXPECT_EQ(response.code, protocol::ErrorCode::UnknownExperiment);
    EXPECT_NE(response.payload.find("echo"), std::string::npos);
    server.stop();
}

TEST(ServerLoop, GarbageFrameGetsMalformedRequestNotDisconnect) {
    SurveyServer server{fast_config()};
    server.start();

    const int fd = connect_raw(server.port());
    ASSERT_TRUE(protocol::write_frame(fd, "this is not a request"));
    const auto frame = protocol::read_frame(fd);
    ASSERT_TRUE(frame.has_value());
    const auto response = protocol::parse_response(*frame);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->code, protocol::ErrorCode::MalformedRequest);

    // A well-formed request under an older magic gets exactly one
    // rejection that names both versions.
    ASSERT_TRUE(protocol::write_frame(fd, "hsw-survey-rpc v1\nverb ping\n"));
    const auto old_frame = protocol::read_frame(fd);
    ASSERT_TRUE(old_frame.has_value());
    const auto old_magic = protocol::parse_response(*old_frame);
    ASSERT_TRUE(old_magic.has_value());
    EXPECT_EQ(old_magic->code, protocol::ErrorCode::MalformedRequest);
    EXPECT_NE(old_magic->payload.find("'hsw-survey-rpc v1'"), std::string::npos)
        << old_magic->payload;
    EXPECT_NE(old_magic->payload.find(protocol::kMagic), std::string::npos)
        << old_magic->payload;

    // The connection survives: a well-formed request still works.
    protocol::Request ping;
    ping.verb = protocol::Verb::Ping;
    ASSERT_TRUE(protocol::write_frame(fd, ping.encode()));
    const auto pong = protocol::read_frame(fd);
    ASSERT_TRUE(pong.has_value());
    EXPECT_NE(pong->find("pong"), std::string::npos);
    ::close(fd);
    server.stop();
}

TEST(ServerLoop, ShutdownVerbStopsTheServer) {
    SurveyServer server{fast_config()};
    server.start();

    {
        ServiceClient client{"127.0.0.1", server.port()};
        protocol::Request shutdown;
        shutdown.verb = protocol::Verb::Shutdown;
        const auto response = client.call(shutdown);
        EXPECT_TRUE(response.ok());
        EXPECT_EQ(response.payload, "draining");
    }

    server.wait();  // returns because the verb drove stop()
    EXPECT_TRUE(server.stopped());
    EXPECT_TRUE(server.service().draining());
}

TEST(ServerLoop, ConnectionLimitRefusesStructurally) {
    ServerConfig cfg = fast_config();
    cfg.max_connections = 1;
    SurveyServer server{cfg};
    server.start();

    ServiceClient first{"127.0.0.1", server.port()};
    protocol::Request ping;
    ping.verb = protocol::Verb::Ping;
    ASSERT_TRUE(first.call(ping).ok());  // connection 1 is live and counted

    // Connection 2 is refused with one Overloaded response, then closed.
    const int fd = connect_raw(server.port());
    const auto frame = protocol::read_frame(fd);
    ASSERT_TRUE(frame.has_value());
    const auto response = protocol::parse_response(*frame);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->code, protocol::ErrorCode::Overloaded);
    ::close(fd);
    server.stop();
}

namespace {

/// fast_config plus a "slow" experiment whose single job parks the handler
/// thread long enough to observe tagged out-of-order completion.
ServerConfig slow_and_fast_config() {
    ServerConfig cfg = fast_config();
    const auto echo_factory = cfg.service.registry_factory;
    cfg.service.registry_factory =
        [echo_factory](bool quick) {
            auto experiments = echo_factory(quick);
            engine::Experiment slow;
            slow.name = "slow";
            slow.description = "one deliberately slow point";
            engine::Job job;
            job.spec.experiment = "slow";
            job.spec.point = "all";
            job.run = [](const engine::ExperimentSpec&) {
                std::this_thread::sleep_for(std::chrono::milliseconds{200});
                return std::string{"slow bytes"};
            };
            slow.jobs.push_back(std::move(job));
            slow.assemble = [](const std::vector<std::string>& payloads) {
                return std::vector<engine::Artifact>{
                    {"slow.csv", engine::ArtifactKind::Csv, payloads.at(0)}};
            };
            experiments.push_back(std::move(slow));
            return experiments;
        };
    return cfg;
}

void write_all_raw(int fd, const char* data, std::size_t len) {
    std::size_t done = 0;
    while (done < len) {
        const ssize_t n = ::write(fd, data + done, len - done);
        ASSERT_GT(n, 0);
        done += static_cast<std::size_t>(n);
    }
}

/// One length-prefixed frame as raw bytes, ready for dribbling.
std::string raw_frame(const std::string& body) {
    const std::uint32_t len = static_cast<std::uint32_t>(body.size());
    std::string out;
    out.push_back(static_cast<char>(len >> 24));
    out.push_back(static_cast<char>(len >> 16));
    out.push_back(static_cast<char>(len >> 8));
    out.push_back(static_cast<char>(len));
    out += body;
    return out;
}

}  // namespace

TEST(ServerLoop, PartialWritesAcrossFrameBoundariesReassemble) {
    SurveyServer server{fast_config()};
    server.start();
    const int fd = connect_raw(server.port());

    protocol::Request ping;
    ping.verb = protocol::Verb::Ping;
    const std::string one = raw_frame(ping.encode());

    // Dribble the first frame one byte at a time -- every read the reactor
    // does lands mid-prefix or mid-body.
    for (const char c : one) {
        write_all_raw(fd, &c, 1);
    }
    auto response = protocol::read_frame(fd);
    ASSERT_TRUE(response.has_value());
    EXPECT_NE(response->find("pong"), std::string::npos);

    // Then two frames plus a torn third in one write: both whole frames
    // answer, the tail waits for its remainder instead of desyncing.
    const std::string torn = one + one + one.substr(0, 7);
    write_all_raw(fd, torn.data(), torn.size());
    ASSERT_TRUE(protocol::read_frame(fd).has_value());
    ASSERT_TRUE(protocol::read_frame(fd).has_value());
    write_all_raw(fd, one.data() + 7, one.size() - 7);
    response = protocol::read_frame(fd);
    ASSERT_TRUE(response.has_value());
    EXPECT_NE(response->find("pong"), std::string::npos);

    ::close(fd);
    server.stop();
}

TEST(ServerLoop, TaggedResponsesCompleteOutOfOrder) {
    SurveyServer server{slow_and_fast_config()};
    server.start();
    const int fd = connect_raw(server.port());

    // One batch: a slow compute (tag 1) then a ping (tag 2). The ping
    // finishes first and, being tagged, is flushed immediately; the slow
    // response follows when its job lands.
    protocol::Request slow;
    slow.verb = protocol::Verb::Query;
    slow.experiment = "slow";
    slow.point = "all";
    slow.tag = 1;
    protocol::Request ping;
    ping.verb = protocol::Verb::Ping;
    ping.tag = 2;
    ASSERT_TRUE(protocol::write_frame(fd, protocol::encode_batch({slow, ping})));

    const auto first = protocol::read_frame(fd);
    ASSERT_TRUE(first.has_value());
    const auto first_response = protocol::parse_response(*first);
    ASSERT_TRUE(first_response.has_value());
    EXPECT_EQ(first_response->tag, 2u);  // the ping overtook the compute
    EXPECT_EQ(first_response->payload, "pong");

    const auto second = protocol::read_frame(fd);
    ASSERT_TRUE(second.has_value());
    const auto second_response = protocol::parse_response(*second);
    ASSERT_TRUE(second_response.has_value());
    EXPECT_EQ(second_response->tag, 1u);
    EXPECT_TRUE(second_response->ok());

    ::close(fd);
    server.stop();
}

TEST(ServerLoop, MalformedBatchRejectedWholeAndConnectionSurvives) {
    SurveyServer server{fast_config()};
    server.start();
    const int fd = connect_raw(server.port());

    // Structurally a batch, but the count lies about the body.
    const std::string bogus =
        std::string{protocol::kMagic} + "\nverb batch\ncount 2\njunk";
    ASSERT_TRUE(protocol::write_frame(fd, bogus));
    const auto frame = protocol::read_frame(fd);
    ASSERT_TRUE(frame.has_value());
    const auto response = protocol::parse_response(*frame);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->code, protocol::ErrorCode::MalformedRequest);
    EXPECT_EQ(response->tag, 0u);  // one untagged rejection for the whole batch

    // No further responses for the bogus batch, and the connection still
    // serves well-formed traffic.
    protocol::Request ping;
    ping.verb = protocol::Verb::Ping;
    ASSERT_TRUE(protocol::write_frame(fd, ping.encode()));
    const auto pong = protocol::read_frame(fd);
    ASSERT_TRUE(pong.has_value());
    EXPECT_NE(pong->find("pong"), std::string::npos);

    ::close(fd);
    server.stop();
}

TEST(ServerLoop, PausedReadsResumeOnceTheClientDrains) {
    // Every reply is far larger than max_output_bytes, and the client's
    // receive buffer is tiny, so the reactor must stop reading this
    // connection after the first burst. Replies come from the fast
    // handler, so nothing but FrameServer::on_writable can resume reads.
    FrameServerConfig cfg;
    cfg.reactor_threads = 1;
    cfg.max_output_bytes = 64u << 10;
    cfg.metric_prefix = "hsw_test_backpressure";
    FrameServer server{cfg, [](const protocol::Request&) { return protocol::Response{}; }};
    std::atomic<int> handled{0};
    const std::string filler(256u << 10, 'x');
    server.set_fast_handler([&handled, &filler](const protocol::Request& request)
                                -> std::optional<protocol::Response> {
        handled.fetch_add(1);
        protocol::Response response;
        response.payload = request.verb == protocol::Verb::Ping
                               ? std::string{"pong"}
                               : std::string{request.experiment}.append(filler);
        return response;
    });
    server.start();
    const int fd = connect_raw(server.port(), 16 << 10);

    // 32 x 256 KiB of replies: more than the socket buffers can hold.
    constexpr int kBurst = 32;
    std::string burst;
    for (int i = 0; i < kBurst; ++i) {
        protocol::Request req;
        req.verb = protocol::Verb::Query;
        req.experiment = std::to_string(i).append(":");
        burst += raw_frame(req.encode());
    }
    write_all_raw(fd, burst.data(), burst.size());
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds{10};
    while (handled.load() < kBurst && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
    ASSERT_EQ(handled.load(), kBurst);

    // The burst was parsed in full, so this ping arrives on a later read
    // -- which the paused connection must not do yet.
    protocol::Request ping;
    ping.verb = protocol::Verb::Ping;
    const std::string tail = raw_frame(ping.encode());
    write_all_raw(fd, tail.data(), tail.size());
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
    EXPECT_EQ(handled.load(), kBurst) << "the reactor kept reading a backlogged connection";

    // Drain: every reply in request order, then the ping's.
    for (int i = 0; i < kBurst; ++i) {
        const auto frame = protocol::read_frame(fd);
        ASSERT_TRUE(frame.has_value()) << i;
        const auto response = protocol::parse_response(*frame);
        ASSERT_TRUE(response.has_value()) << i;
        const std::string want = std::to_string(i).append(":");
        EXPECT_EQ(response->payload.compare(0, want.size(), want), 0) << i;
        EXPECT_EQ(response->payload.size(), want.size() + filler.size()) << i;
    }
    const auto pong = protocol::read_frame(fd);
    ASSERT_TRUE(pong.has_value());
    const auto pong_response = protocol::parse_response(*pong);
    ASSERT_TRUE(pong_response.has_value());
    EXPECT_EQ(pong_response->payload, "pong");
    EXPECT_EQ(handled.load(), kBurst + 1);
    ::close(fd);
    server.stop();
}

TEST(ServerLoop, SequentialRequestsStayOnTheWarmestHandlerThread) {
    // One request at a time through the handler pool (no fast handler):
    // each is handed to the thread that went idle last, which is the one
    // that served the previous request, or the one before it if the next
    // request beat that thread back to the idle stack. Waking the oldest
    // waiter instead walks the whole 64-thread pool.
    std::mutex lock;
    std::set<std::thread::id> threads;
    FrameServerConfig cfg;
    cfg.metric_prefix = "hsw_test_warmest";
    FrameServer server{cfg, [&](const protocol::Request&) {
                           {
                               const std::lock_guard<std::mutex> guard{lock};
                               threads.insert(std::this_thread::get_id());
                           }
                           protocol::Response response;
                           response.payload = "served";
                           return response;
                       }};
    server.start();
    // Every pool thread parks before the first request: one that started
    // late would go idle on top of the thread that served it.
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
    {
        ServiceClient client{"127.0.0.1", server.port()};
        protocol::Request req;
        req.verb = protocol::Verb::Query;
        req.experiment = "echo";
        for (int i = 0; i < 32; ++i) {
            const auto response = client.call(req);
            ASSERT_TRUE(response.ok()) << i;
            ASSERT_EQ(response.payload, "served") << i;
            // Time for the thread that replied to park again, even on a
            // loaded host.
            std::this_thread::sleep_for(std::chrono::milliseconds{2});
        }
    }
    server.stop();
    const std::lock_guard<std::mutex> guard{lock};
    EXPECT_LE(threads.size(), 2u);
}

TEST(ServerLoop, StopWithEveryHandlerThreadIdleJoinsPromptly) {
    FrameServerConfig cfg;
    cfg.metric_prefix = "hsw_test_idle_stop";
    FrameServer server{cfg, [](const protocol::Request&) { return protocol::Response{}; }};
    server.start();
    {
        // One served request, then nothing: every pool thread is parked
        // on its own wake slot when stop() runs.
        ServiceClient client{"127.0.0.1", server.port()};
        protocol::Request req;
        req.verb = protocol::Verb::Query;
        req.experiment = "echo";
        ASSERT_TRUE(client.call(req).ok());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    const auto before = std::chrono::steady_clock::now();
    server.stop();
    EXPECT_TRUE(server.stopped());
    EXPECT_LT(std::chrono::steady_clock::now() - before, std::chrono::seconds{2});
}

TEST(ServerLoop, PipelinedReplayIsByteIdenticalToSingleCalls) {
    SurveyServer server{fast_config()};
    server.start();

    ServiceClient client{"127.0.0.1", server.port()};
    protocol::Request req;
    req.verb = protocol::Verb::Query;
    req.experiment = "echo";
    req.point = "all";
    const auto reference = client.call(req);
    ASSERT_TRUE(reference.ok()) << reference.payload;

    const std::vector<protocol::Request> window(8, req);
    const auto responses = client.call_pipelined(window);
    ASSERT_EQ(responses.size(), window.size());
    for (const auto& response : responses) {
        ASSERT_TRUE(response.ok());
        EXPECT_EQ(response.payload, reference.payload);
        EXPECT_EQ(response.source, protocol::Source::HotCache);
    }
    server.stop();
}

// --- Distributed trace context ----------------------------------------------

TEST(ServerLoop, TracedQueryLinksClientAndServerSpans) {
    // Client and server share this process, so both ends' spans land in
    // the same rings: the export must show one tree under one trace_id.
    obs::trace::enable();
    SurveyServer server{fast_config()};
    server.start();

    const auto root = obs::trace::make_root(true);
    {
        obs::trace::ContextScope scope{root};
        ServiceClient client{"127.0.0.1", server.port()};
        protocol::Request req;
        req.verb = protocol::Verb::Query;
        req.experiment = "echo";
        req.point = "all";
        const auto response = client.call(req);
        ASSERT_TRUE(response.ok()) << response.payload;
    }
    server.stop();
    obs::trace::disable();

    char want_trace[32];
    std::snprintf(want_trace, sizeof want_trace, "\"trace_id\":\"%016llx\"",
                  static_cast<unsigned long long>(root.trace_id));
    const std::string json = obs::trace::export_chrome_json();
    obs::trace::clear();

    // Both hops carry the shared trace_id.
    EXPECT_NE(json.find("client.call"), std::string::npos);
    EXPECT_NE(json.find("server.request"), std::string::npos);
    const auto first = json.find(want_trace);
    ASSERT_NE(first, std::string::npos) << json;
    EXPECT_NE(json.find(want_trace, first + 1), std::string::npos)
        << "only one span carries the trace_id";
}

TEST(ServerLoop, TraceDumpVerbReturnsTheSpanRing) {
    obs::trace::enable();
    SurveyServer server{fast_config()};
    server.start();

    ServiceClient client{"127.0.0.1", server.port()};
    protocol::Request req;
    req.verb = protocol::Verb::TraceDump;
    const auto response = client.call(req);
    ASSERT_TRUE(response.ok()) << response.payload;
    EXPECT_NE(response.payload.find("traceEvents"), std::string::npos);
    server.stop();
    obs::trace::disable();
    obs::trace::clear();
}

TEST(ServerLoop, TracedPipelineAgainstV14ServerKeepsGoldenBytes) {
    // Trace headers are pure telemetry: a traced pipelined window returns
    // payloads byte-identical to an untraced single call.
    SurveyServer server{fast_config()};
    server.start();
    ServiceClient client{"127.0.0.1", server.port()};
    protocol::Request req;
    req.verb = protocol::Verb::Query;
    req.experiment = "echo";
    req.point = "all";
    const auto reference = client.call(req);
    ASSERT_TRUE(reference.ok());

    const auto root = obs::trace::make_root(true);
    obs::trace::ContextScope scope{root};
    const std::vector<protocol::Request> window(4, req);
    const auto responses = client.call_pipelined(window);
    ASSERT_EQ(responses.size(), window.size());
    for (const auto& response : responses) {
        ASSERT_TRUE(response.ok());
        EXPECT_EQ(response.payload, reference.payload);
    }
    server.stop();
}
