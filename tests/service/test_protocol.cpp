// Wire protocol: encode/parse round trips, malformed-input rejection, and
// frame I/O over real pipes and socketpairs.
#include "service/protocol.hpp"

#include <gtest/gtest.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../heap_alloc_counter.hpp"

using namespace hsw::service::protocol;

namespace {

struct Pipe {
    int read_fd = -1;
    int write_fd = -1;
    Pipe() {
        int fds[2];
        EXPECT_EQ(::pipe(fds), 0);
        read_fd = fds[0];
        write_fd = fds[1];
    }
    ~Pipe() {
        if (read_fd >= 0) ::close(read_fd);
        if (write_fd >= 0) ::close(write_fd);
    }
    void close_write() {
        ::close(write_fd);
        write_fd = -1;
    }
};

}  // namespace

TEST(ProtocolTest, RequestRoundTripPreservesEveryField) {
    Request req;
    req.verb = Verb::Query;
    req.experiment = "fig7";
    req.point = "stride=64";
    req.seed = 0xDEADBEEFCAFEull;
    req.audit = hsw::analysis::AuditMode::Strict;
    req.quick = true;
    req.deadline_ms = 1500;

    std::string error;
    const auto parsed = parse_request(req.encode(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->verb, Verb::Query);
    EXPECT_EQ(parsed->experiment, "fig7");
    EXPECT_EQ(parsed->point, "stride=64");
    EXPECT_EQ(parsed->seed, 0xDEADBEEFCAFEull);
    EXPECT_EQ(parsed->audit, hsw::analysis::AuditMode::Strict);
    EXPECT_TRUE(parsed->quick);
    EXPECT_EQ(parsed->deadline_ms, 1500u);
}

TEST(ProtocolTest, NonQueryVerbsOmitQueryFields) {
    Request req;
    req.verb = Verb::Ping;
    const std::string wire = req.encode();
    EXPECT_EQ(wire.find("experiment"), std::string::npos);
    const auto parsed = parse_request(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->verb, Verb::Ping);
}

TEST(ProtocolTest, RequestParseRejectsMalformedInput) {
    const struct {
        const char* body;  // everything after the magic line
        const char* why;
    } cases[] = {
        {"", "missing verb"},
        {"verb frobnicate\n", "unknown verb"},
        {"verb query\n", "query without experiment"},
        {"verb query\nexperiment fig3\nseed zzz\n", "bad seed"},
        {"verb query\nexperiment fig3\naudit loud\n", "bad audit"},
        {"verb query\nexperiment fig3\nquick maybe\n", "bad quick"},
        {"verb ping\nbogus-field 1\n", "unknown field"},
        {"verb query\nexperiment fig3\npoint\n", "empty point"},
        {"verb ping\ndeadline-ms 99999999999\n", "deadline overflow"},
        // Integers: a decimal without leading zeros, or 0x and 1-16 hex
        // digits. Nothing else an encoder emits, so nothing else parses.
        {"verb ping\ntag -1\n", "negative wraps to 2^64-1"},
        {"verb ping\ntag 010\n", "leading zero (octal)"},
        {"verb ping\ntag +5\n", "explicit sign"},
        {"verb ping\ntag  5\n", "leading space"},
        {"verb ping\ntag 5 \n", "trailing space"},
        {"verb ping\ntag 0x\n", "hex prefix without digits"},
        {"verb ping\ntag 0X1f\n", "uppercase hex prefix"},
        {"verb ping\ntag 0x00000000000000001\n", "seventeen hex digits"},
        {"verb ping\ntag 18446744073709551616\n", "decimal overflow"},
        {"verb ping\ndeadline-ms 00\n", "zero with a leading zero"},
        {"verb query\nexperiment fig3\nseed 0x1g\n", "bad hex digit"},
    };
    for (const auto& c : cases) {
        const std::string wire = std::string{kMagic}.append("\n").append(c.body);
        std::string error;
        EXPECT_FALSE(parse_request(wire, &error).has_value()) << c.why;
        EXPECT_FALSE(error.empty()) << c.why;
    }
    // The magic itself is matched exactly.
    std::string error;
    EXPECT_FALSE(parse_request("not-the-magic\nverb ping\n", &error).has_value());
    EXPECT_FALSE(error.empty());
}

TEST(ProtocolTest, StrictIntegersStillAcceptEveryEncodedForm) {
    const std::string head = std::string{kMagic}.append("\nverb ping\n");
    for (const auto& [line, tag] :
         std::vector<std::pair<std::string, std::uint64_t>>{
             {"tag 1\n", 1},
             {"tag 18446744073709551615\n", 0xFFFFFFFFFFFFFFFFull},
             {"tag 0x1\n", 1},
             {"tag 0xffffffffffffffff\n", 0xFFFFFFFFFFFFFFFFull},
             {"tag 0x00000000000000AB\n", 0xAB},
         }) {
        std::string error;
        const auto parsed = parse_request(std::string{head}.append(line), &error);
        ASSERT_TRUE(parsed.has_value()) << line << error;
        EXPECT_EQ(parsed->tag, tag) << line;
    }
    const auto zero = parse_request(std::string{head}.append("deadline-ms 0\n"));
    ASSERT_TRUE(zero.has_value());
    EXPECT_EQ(zero->deadline_ms, 0u);
}

TEST(ProtocolTest, SuccessResponseRoundTrip) {
    Response resp;
    resp.code = ErrorCode::None;
    resp.source = Source::DiskCache;
    // Payload with newlines and a fake header line: the length prefix must
    // keep the parser from reading it as protocol text.
    resp.payload = "line1\npayload-bytes 9999\nline3";

    std::string error;
    const auto parsed = parse_response(resp.encode(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_TRUE(parsed->ok());
    EXPECT_EQ(parsed->source, Source::DiskCache);
    EXPECT_EQ(parsed->payload, resp.payload);
}

TEST(ProtocolTest, ErrorResponseRoundTrip) {
    Response resp;
    resp.code = ErrorCode::Overloaded;
    resp.payload = "queue full (64 pending)";
    const auto parsed = parse_response(resp.encode());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(parsed->ok());
    EXPECT_EQ(parsed->code, ErrorCode::Overloaded);
    EXPECT_EQ(parsed->payload, "queue full (64 pending)");
}

TEST(ProtocolTest, ResponseParseRejectsLengthMismatch) {
    const std::string head = std::string{kMagic}.append("\nstatus ok\nsource computed\n");
    std::string error;
    // Claims 10, carries 5.
    EXPECT_FALSE(parse_response(std::string{head}.append("payload-bytes 10\nshort"), &error)
                     .has_value());
    EXPECT_EQ(error, "payload length mismatch");
    // 010 is not eight: the length must be a plain decimal.
    EXPECT_FALSE(
        parse_response(std::string{head}.append("payload-bytes 010\neightbyt"), &error)
            .has_value());
    EXPECT_EQ(error, "payload length mismatch");
}

TEST(ProtocolTest, ResponseParseRejectsErrorWithoutCode) {
    std::string error;
    EXPECT_FALSE(
        parse_response(std::string{kMagic}.append("\nstatus error\npayload-bytes 0\n"),
                       &error)
            .has_value());
    EXPECT_EQ(error, "error status without code");
}

TEST(ProtocolTest, FrameRoundTripOverPipe) {
    Pipe pipe;
    const std::string payload{"hello frame \x00\x01\x02 binary", 22};  // embedded NUL
    ASSERT_TRUE(write_frame(pipe.write_fd, payload));
    const auto read_back = read_frame(pipe.read_fd);
    ASSERT_TRUE(read_back.has_value());
    EXPECT_EQ(*read_back, payload);
}

TEST(ProtocolTest, EmptyFrameIsLegal) {
    Pipe pipe;
    ASSERT_TRUE(write_frame(pipe.write_fd, ""));
    const auto read_back = read_frame(pipe.read_fd);
    ASSERT_TRUE(read_back.has_value());
    EXPECT_TRUE(read_back->empty());
}

TEST(ProtocolTest, SequentialFramesStayDelimited) {
    Pipe pipe;
    ASSERT_TRUE(write_frame(pipe.write_fd, "first"));
    ASSERT_TRUE(write_frame(pipe.write_fd, "second\nwith newline"));
    EXPECT_EQ(*read_frame(pipe.read_fd), "first");
    EXPECT_EQ(*read_frame(pipe.read_fd), "second\nwith newline");
}

TEST(ProtocolTest, CleanEofYieldsNullopt) {
    Pipe pipe;
    pipe.close_write();
    EXPECT_FALSE(read_frame(pipe.read_fd).has_value());
}

TEST(ProtocolTest, TruncatedFrameYieldsNullopt) {
    Pipe pipe;
    // Length prefix says 100 bytes, writer hangs up after 3.
    const char prefix[4] = {0, 0, 0, 100};
    ASSERT_EQ(::write(pipe.write_fd, prefix, 4), 4);
    ASSERT_EQ(::write(pipe.write_fd, "abc", 3), 3);
    pipe.close_write();
    EXPECT_FALSE(read_frame(pipe.read_fd).has_value());
}

TEST(ProtocolTest, OversizedLengthPrefixIsRejectedBeforeAllocating) {
    Pipe pipe;
    const char prefix[4] = {static_cast<char>(0xFF), static_cast<char>(0xFF),
                            static_cast<char>(0xFF), static_cast<char>(0xFF)};
    ASSERT_EQ(::write(pipe.write_fd, prefix, 4), 4);
    EXPECT_FALSE(read_frame(pipe.read_fd).has_value());
}

TEST(ProtocolTest, NamesAreStableWireStrings) {
    // These strings are wire ABI (clients match on them); lock them down.
    EXPECT_EQ(name(ErrorCode::Overloaded), "overloaded");
    EXPECT_EQ(name(ErrorCode::DeadlineExceeded), "deadline-exceeded");
    EXPECT_EQ(name(ErrorCode::ShuttingDown), "shutting-down");
    EXPECT_EQ(name(Source::HotCache), "hot-cache");
    EXPECT_EQ(name(Source::DiskCache), "disk-cache");
    EXPECT_EQ(name(Source::Computed), "computed");
    EXPECT_EQ(name(Verb::Query), "query");
    EXPECT_EQ(name(Verb::Metrics), "metrics");
    EXPECT_EQ(name(MetricsFormat::Prometheus), "prometheus");
    EXPECT_EQ(name(MetricsFormat::Json), "json");
}

TEST(ProtocolTest, MetricsVerbRoundTripsWithFormat) {
    Request req;
    req.verb = Verb::Metrics;
    req.format = MetricsFormat::Json;
    const std::string wire = req.encode();
    EXPECT_NE(wire.find("verb metrics\n"), std::string::npos);
    EXPECT_NE(wire.find("format json\n"), std::string::npos);

    std::string error;
    const auto parsed = parse_request(wire, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->verb, Verb::Metrics);
    EXPECT_EQ(parsed->format, MetricsFormat::Json);
}

TEST(ProtocolTest, MetricsFormatDefaultsToPrometheus) {
    const auto parsed = parse_request(std::string{kMagic}.append("\nverb metrics\n"));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->verb, Verb::Metrics);
    EXPECT_EQ(parsed->format, MetricsFormat::Prometheus);
}

TEST(ProtocolTest, MetricsFormatRejectsUnknownValue) {
    std::string error;
    EXPECT_FALSE(
        parse_request(std::string{kMagic}.append("\nverb metrics\nformat xml\n"), &error)
            .has_value());
    EXPECT_EQ(error, "bad metrics format");
}

TEST(ProtocolTest, MajorRevisionOrJunkMagicIsRejected) {
    EXPECT_EQ(kMagic, "hsw-survey-rpc v2");
    // Any other first line -- an older or newer version, a minor suffix,
    // trailing junk -- gets one error naming what came and what is spoken.
    for (const char* magic : {"hsw-survey-rpc v1", "hsw-survey-rpc v3", "hsw-survey-rpc v2.1",
                              "hsw-survey-rpc v2 ", "hsw-survey-rpc v1.4"}) {
        const std::string wire = std::string{magic}.append("\nverb ping\n");
        std::string error;
        EXPECT_FALSE(parse_request(wire, &error).has_value()) << magic;
        EXPECT_EQ(error, std::string{"unsupported protocol version '"}
                             .append(magic)
                             .append("' (expected 'hsw-survey-rpc v2')"));
        EXPECT_FALSE(looks_like_batch(std::string{magic}.append("\nverb batch\n")))
            << magic;
        EXPECT_FALSE(
            parse_response(std::string{magic}.append("\nstatus ok\npayload-bytes 0\n"))
                .has_value())
            << magic;
    }
}

TEST(ProtocolTest, HealthVerbRoundTrips) {
    Request req;
    req.verb = Verb::Health;
    const std::string wire = req.encode();
    EXPECT_NE(wire.find("verb health\n"), std::string::npos);
    const auto parsed = parse_request(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->verb, Verb::Health);
}

TEST(ProtocolTest, UnavailableCodeRoundTrips) {
    Response resp;
    resp.code = ErrorCode::Unavailable;
    resp.payload = "every replica of shard fig3 is down";
    const auto parsed = parse_response(resp.encode());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(parsed->ok());
    EXPECT_EQ(parsed->code, ErrorCode::Unavailable);
    EXPECT_EQ(name(ErrorCode::Unavailable), "unavailable");
}

TEST(ProtocolTest, RouteKeyIsContentIdentityOnly) {
    Request req;
    req.verb = Verb::Query;
    req.experiment = "fig7";
    req.point = "stride=64";
    req.seed = 42;
    const std::string key = route_key(req);
    EXPECT_EQ(key.size(), 64u);  // sha256 hex

    // Delivery preferences must not move a key between shards: the same
    // spec with a different deadline or metrics format routes identically.
    Request other = req;
    other.deadline_ms = 9999;
    EXPECT_EQ(route_key(other), key);

    // Identity fields do move it.
    other = req;
    other.seed = 43;
    EXPECT_NE(route_key(other), key);
    other = req;
    other.point = "stride=128";
    EXPECT_NE(route_key(other), key);
    other = req;
    other.quick = true;
    EXPECT_NE(route_key(other), key);
}

namespace {

Request pinned_query(std::string experiment, std::string point, std::uint64_t seed) {
    Request req;
    req.verb = Verb::Query;
    req.experiment = std::move(experiment);
    req.point = std::move(point);
    req.seed = seed;
    return req;
}

/// 1,000 bytes: the canonical text spans 17 blocks of the hasher.
std::string long_experiment_name() {
    std::string name;
    for (int i = 0; i < 1000; ++i) name += static_cast<char>('a' + i % 26);
    return name;
}

}  // namespace

TEST(ProtocolTest, RouteKeyBytesArePinned) {
    // Route keys are placement and cache identity across a fleet, so their
    // bytes never move. These were captured from the concatenated
    // canonical text that the streaming hasher replaced.
    struct Pin {
        const char* what;
        Request request;
        const char* key;
    };
    std::vector<Pin> pins;
    pins.push_back({"1,000-byte experiment",
                    pinned_query(long_experiment_name(), "*", 0xC0FFEE),
                    "3a86674712f769e96fa93169d1f9168a5cf26f323974df0fe2d12f35afa2ba06"});
    pins.push_back({"named point", pinned_query("fig7", "generation=Haswell-EP", 7),
                    "a8db0d69af3690992c4a75c9f94ade8d12640fbb064dcd1ca4ec49a639e59691"});
    pins.push_back({"whole experiment", pinned_query("table5", "*", 7),
                    "2bcfce11e30a0cd99c36d011b3ba195fd66eb09f5d68ff96ba6a4ebf02e77af6"});
    pins.push_back({"seed 0", pinned_query("fig4", "*", 0),
                    "9c60cc22ad98bb44d0a52c764d65bb17cd82f5d10ddbbc6bdc6dcc7bf1678e14"});
    pins.push_back({"seed 2^64-1",
                    pinned_query("fig4", "*", std::numeric_limits<std::uint64_t>::max()),
                    "4b77cb1f8d58330a2608e7dd39635d92e6a574cf0017ce9759b73168e38c8eb7"});
    pins.push_back({"audit off", pinned_query("fig3", "*", 7),
                    "57e5b6c21577d186fdd8148a7c04449145fe866b166c7ab8999c2e1705da7cc5"});
    Request warn = pinned_query("fig3", "*", 7);
    warn.audit = hsw::analysis::AuditMode::Warn;
    pins.push_back({"audit warn", warn,
                    "dedf6dbb0340256a2e38691435ba25f7b501168d0c367e82e3ab2e45ef589f2a"});
    Request strict = pinned_query("fig3", "*", 7);
    strict.audit = hsw::analysis::AuditMode::Strict;
    pins.push_back({"audit strict", strict,
                    "43ddf0b9f7c0d25f77e383c5f15e85fb09a25ed6585f900a6631e019c54c7ceb"});
    Request quick = pinned_query("fig3", "*", 7);
    quick.quick = true;
    pins.push_back({"quick", quick,
                    "4c2e2b2f1af296535f90bdecb70239a4e688e509b9f058de38d3f8cd1856ecb5"});
    Request ping;
    ping.verb = Verb::Ping;
    pins.push_back({"ping verb", ping,
                    "2cb71334b3b55f85c559e86aeb5a2849af546a8e6125366d8a80900f6e2879a4"});
    for (const Pin& pin : pins) EXPECT_EQ(route_key(pin.request), pin.key) << pin.what;
}

TEST(ProtocolTest, RouteKeyAllocatesOnlyItsResult) {
    // The canonical fields stream into the hasher; the hex string returned
    // is the one allocation, however long the experiment name.
    const Request req = pinned_query(long_experiment_name(), "generation=Haswell-EP", 7);
    std::string key = route_key(req);  // first use picks the SHA-256 kernel
    const std::uint64_t before = g_heap_allocs.load();
    key = route_key(req);
    const std::uint64_t allocs = g_heap_allocs.load() - before;
    EXPECT_EQ(allocs, 1u);
    EXPECT_EQ(key.size(), 64u);
}

// --- Tags and batch frames ----------------------------------------------------

TEST(ProtocolTest, TagRoundTripsAndDefaultsToUntagged) {
    Request req;
    req.verb = Verb::Query;
    req.experiment = "fig3";
    req.tag = 0xABCDEF0123456789ull;
    const auto parsed = parse_request(req.encode());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->tag, 0xABCDEF0123456789ull);

    // Tag is delivery metadata, not identity: it must not move the key.
    Request untagged = req;
    untagged.tag = 0;
    EXPECT_EQ(route_key(req), route_key(untagged));
    const auto plain = parse_request(untagged.encode());
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(plain->tag, 0u);

    Response resp;
    resp.payload = "bytes";
    resp.tag = 77;
    const auto back = parse_response(resp.encode());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->tag, 77u);
}

TEST(ProtocolTest, BatchEncodeParseRoundTrip) {
    std::vector<Request> batch(3);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].verb = Verb::Query;
        batch[i].experiment = "fig" + std::to_string(i);
        batch[i].tag = i + 1;
    }
    const std::string frame = encode_batch(batch);
    EXPECT_TRUE(looks_like_batch(frame));
    EXPECT_FALSE(looks_like_batch(batch[0].encode()));

    std::string error;
    const auto parsed = parse_batch(frame, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    ASSERT_EQ(parsed->size(), 3u);
    for (std::size_t i = 0; i < parsed->size(); ++i) {
        EXPECT_EQ((*parsed)[i].experiment, "fig" + std::to_string(i));
        EXPECT_EQ((*parsed)[i].tag, i + 1);
    }
}

TEST(ProtocolTest, BatchRejectsBadCount) {
    const std::string head = std::string{kMagic} + "\nverb batch\n";
    std::string error;
    EXPECT_FALSE(parse_batch(head + "count 0\n", &error).has_value());
    EXPECT_FALSE(parse_batch(head + "count 1025\n", &error).has_value());
    EXPECT_EQ(error, "bad batch count");
    EXPECT_FALSE(parse_batch(head + "count banana\n", &error).has_value());
    EXPECT_FALSE(parse_batch(head, &error).has_value());  // missing count
}

TEST(ProtocolTest, BatchRejectsTruncationWhole) {
    Request req;
    req.verb = Verb::Ping;
    const std::string frame = encode_batch({req, req});

    // Cut inside the second length prefix, then inside the second body:
    // both reject the batch whole rather than yielding a partial vector.
    std::string error;
    EXPECT_FALSE(parse_batch(frame.substr(0, frame.size() - req.encode().size() - 2),
                             &error)
                     .has_value());
    EXPECT_EQ(error, "truncated batch length prefix");
    EXPECT_FALSE(parse_batch(frame.substr(0, frame.size() - 1), &error).has_value());
    EXPECT_EQ(error, "truncated batch sub-request");
}

TEST(ProtocolTest, BatchRejectsTrailingBytesAndBadSubRequest) {
    Request req;
    req.verb = Verb::Ping;
    std::string error;
    EXPECT_FALSE(parse_batch(encode_batch({req}) + "x", &error).has_value());
    EXPECT_EQ(error, "trailing bytes after batch");

    // A sub-request that is not a valid request poisons the whole frame.
    std::string frame = std::string{kMagic} + "\nverb batch\ncount 1\n";
    const std::string junk = "not a request";
    const std::uint32_t len = static_cast<std::uint32_t>(junk.size());
    const char prefix[4] = {static_cast<char>(len >> 24), static_cast<char>(len >> 16),
                            static_cast<char>(len >> 8), static_cast<char>(len)};
    frame.append(prefix, sizeof prefix);
    frame += junk;
    EXPECT_FALSE(parse_batch(frame, &error).has_value());
    EXPECT_NE(error.find("batch sub-request 0"), std::string::npos);
}

TEST(ProtocolTest, BatchRejectsARepeatedTagButNotRepeatedUntagged) {
    Request a;
    a.verb = Verb::Ping;
    Request b = a;
    Request c = a;
    a.tag = 7;
    c.tag = 7;
    std::string error;
    EXPECT_FALSE(parse_batch(encode_batch({a, b, c}), &error).has_value());
    EXPECT_EQ(error, "batch repeats tag 7");

    // Untagged (0) sub-requests are answered in order and may repeat.
    c.tag = 0;
    const auto parsed = parse_batch(encode_batch({a, b, c}), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->size(), 3u);
}

namespace {

/// A connected stream pair: `client` drives send_batch/receive_batch,
/// `server` is scripted by the test.
struct StreamPair {
    int client = -1;
    int server = -1;
    StreamPair() {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        client = fds[0];
        server = fds[1];
    }
    ~StreamPair() {
        if (client >= 0) ::close(client);
        if (server >= 0) ::close(server);
    }
};

}  // namespace

TEST(ProtocolTest, CallBatchReordersTaggedResponses) {
    StreamPair fds;
    std::vector<Request> requests(3);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].verb = Verb::Query;
        requests[i].experiment = "fig" + std::to_string(i);
    }
    requests[2].tag = 99;  // caller-chosen tag must be preserved

    std::thread server{[&fds] {
        const auto frame = read_frame(fds.server);
        ASSERT_TRUE(frame.has_value());
        ASSERT_TRUE(looks_like_batch(*frame));
        const auto batch = parse_batch(*frame);
        ASSERT_TRUE(batch.has_value());
        ASSERT_EQ(batch->size(), 3u);
        // Answer in reverse order: tags let the client reorder.
        for (std::size_t i = batch->size(); i-- > 0;) {
            Response resp;
            resp.payload = "payload for " + (*batch)[i].experiment;
            resp.tag = (*batch)[i].tag;
            ASSERT_TRUE(write_frame(fds.server, resp.encode()));
        }
    }};

    FrameReader reader{fds.client};
    const auto responses = receive_batch(reader, send_batch(fds.client, requests));
    server.join();
    ASSERT_EQ(responses.size(), 3u);
    for (std::size_t i = 0; i < responses.size(); ++i) {
        EXPECT_EQ(responses[i].payload, "payload for fig" + std::to_string(i));
    }
    // The helper's bookkeeping tags are stripped; the caller's own survives.
    EXPECT_EQ(responses[0].tag, 0u);
    EXPECT_EQ(responses[1].tag, 0u);
    EXPECT_EQ(responses[2].tag, 99u);
}

TEST(ProtocolTest, CallBatchRejectsDuplicateCallerTags) {
    StreamPair fds;
    std::vector<Request> requests(2);
    requests[0].tag = 5;
    requests[1].tag = 5;
    EXPECT_THROW({ (void)send_batch(fds.client, requests); }, std::runtime_error);
}

TEST(ProtocolTest, SendBatchTagsAroundCallerTags) {
    StreamPair fds;
    std::vector<Request> requests(4);
    requests[1].tag = 1;  // untagged requests must step around 1 and 3
    requests[2].tag = 3;
    const PendingBatch batch = send_batch(fds.client, requests);
    const auto frame = read_frame(fds.server);
    ASSERT_TRUE(frame.has_value());
    const auto wire = parse_batch(*frame);
    ASSERT_TRUE(wire.has_value());
    ASSERT_EQ(wire->size(), 4u);
    EXPECT_EQ((*wire)[0].tag, 2u);
    EXPECT_EQ((*wire)[1].tag, 1u);
    EXPECT_EQ((*wire)[2].tag, 3u);
    EXPECT_EQ((*wire)[3].tag, 4u);
    ASSERT_EQ(batch.slots.size(), 4u);
    for (std::size_t i = 1; i < batch.slots.size(); ++i) {
        EXPECT_LT(batch.slots[i - 1].tag, batch.slots[i].tag);
    }
}

TEST(ProtocolTest, EmptyBatchWritesAndReadsNothing) {
    StreamPair fds;
    FrameReader reader{fds.client};
    EXPECT_TRUE(receive_batch(reader, send_batch(fds.client, {})).empty());
    ::close(fds.client);
    fds.client = -1;
    EXPECT_FALSE(read_frame(fds.server).has_value());  // clean EOF, no frame
}

namespace {

/// Two encoded replies answering tags 1 and 2 in reverse order, as one
/// byte string.
std::string two_replies() {
    std::string wire;
    for (const std::uint64_t tag : {2u, 1u}) {
        Response resp;
        resp.payload = "reply to " + std::to_string(tag);
        resp.tag = tag;
        const std::string body = resp.encode();
        const auto prefix = frame_prefix(static_cast<std::uint32_t>(body.size()));
        wire.append(prefix.data(), prefix.size()).append(body);
    }
    return wire;
}

/// Bytes the kernel holds for the next read of `fd`.
int unread_bytes(int fd) {
    int n = 0;
    EXPECT_EQ(::ioctl(fd, FIONREAD, &n), 0);
    return n;
}

}  // namespace

TEST(ProtocolTest, ReceiveBatchReassemblesRepliesSplitAtEveryByte) {
    const std::string wire = two_replies();
    for (std::size_t split = 0; split <= wire.size(); ++split) {
        StreamPair fds;
        FrameReader reader{fds.client};
        PendingBatch batch = send_batch(fds.client, std::vector<Request>(2));
        ASSERT_TRUE(read_frame(fds.server).has_value());
        // The first part lands alone; the rest follows only once the
        // reader has taken it, so every read ends at `split`.
        ASSERT_EQ(::write(fds.server, wire.data(), split), static_cast<ssize_t>(split));
        std::thread rest{[&fds, &wire, split] {
            while (split > 0 && unread_bytes(fds.client) > 0) std::this_thread::yield();
            const ssize_t n = ::write(fds.server, wire.data() + split, wire.size() - split);
            EXPECT_EQ(n, static_cast<ssize_t>(wire.size() - split));
        }};
        const auto responses = receive_batch(reader, std::move(batch));
        rest.join();
        ASSERT_EQ(responses.size(), 2u) << "split " << split;
        EXPECT_EQ(responses[0].payload, "reply to 1") << "split " << split;
        EXPECT_EQ(responses[1].payload, "reply to 2") << "split " << split;
        EXPECT_EQ(responses[0].tag, 0u);
        EXPECT_EQ(reader.buffered(), 0u);
    }
}

TEST(ProtocolTest, ReceiveBatchRejectsBytesPastTheLastReply) {
    StreamPair fds;
    FrameReader reader{fds.client};
    PendingBatch batch = send_batch(fds.client, std::vector<Request>(2));
    const std::string wire = two_replies() + "xx";  // one burst, two bytes too many
    ASSERT_EQ(::write(fds.server, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
    EXPECT_THROW({ (void)receive_batch(reader, std::move(batch)); }, std::runtime_error);
}

TEST(ProtocolTest, ReceiveBatchRejectsAnUnknownTag) {
    StreamPair fds;
    FrameReader reader{fds.client};
    PendingBatch batch = send_batch(fds.client, std::vector<Request>(1));
    Response resp;
    resp.tag = 7;
    ASSERT_TRUE(write_frame(fds.server, resp.encode()));
    EXPECT_THROW({ (void)receive_batch(reader, std::move(batch)); }, std::runtime_error);
}

TEST(ProtocolTest, FrameReaderFailsOnOversizedPrefixTruncationAndEof) {
    {
        StreamPair fds;
        FrameReader reader{fds.client};
        const char prefix[4] = {static_cast<char>(0xFF), static_cast<char>(0xFF),
                                static_cast<char>(0xFF), static_cast<char>(0xFF)};
        ASSERT_EQ(::write(fds.server, prefix, 4), 4);
        EXPECT_FALSE(reader.next_frame().has_value());
    }
    {
        StreamPair fds;
        FrameReader reader{fds.client};
        const char prefix[4] = {0, 0, 0, 100};  // claims 100 bytes, sends 3
        ASSERT_EQ(::write(fds.server, prefix, 4), 4);
        ASSERT_EQ(::write(fds.server, "abc", 3), 3);
        ::close(fds.server);
        fds.server = -1;
        EXPECT_FALSE(reader.next_frame().has_value());
    }
    {
        StreamPair fds;
        FrameReader reader{fds.client};
        ASSERT_TRUE(write_frame(fds.server, "last"));
        ::close(fds.server);
        fds.server = -1;
        const auto last = reader.next_frame();
        ASSERT_TRUE(last.has_value());
        EXPECT_EQ(*last, "last");
        EXPECT_FALSE(reader.next_frame().has_value());  // clean EOF
    }
}

TEST(ProtocolTest, FrameLargerThanTheSocketBufferCrossesIntact) {
    StreamPair fds;
    int sndbuf = 0;
    socklen_t len = sizeof sndbuf;
    ASSERT_EQ(::getsockopt(fds.server, SOL_SOCKET, SO_SNDBUF, &sndbuf, &len), 0);
    std::string payload(static_cast<std::size_t>(sndbuf) * 8 + 3, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<char>(i * 131 % 251);
    }
    std::string received;
    std::thread reader_thread{[&fds, &received] {
        FrameReader reader{fds.client};
        for (int i = 0; i < 2; ++i) {
            const auto frame = reader.next_frame();
            ASSERT_TRUE(frame.has_value());
            received.append(*frame);
        }
    }};
    // sendmsg takes part of the frame per call; write_frame resumes across
    // the prefix and the payload until all of it is out.
    EXPECT_TRUE(write_frame(fds.server, payload));
    EXPECT_TRUE(write_frame(fds.server, "tail"));
    reader_thread.join();
    EXPECT_TRUE(received == payload + "tail");
}

TEST(ProtocolTest, LargeFrameCrossesAPipeThroughWritev) {
    Pipe pipe;
    const std::string payload(256u << 10, 'p');  // 4x a default pipe buffer
    std::optional<std::string> read_back;
    std::thread reader{[&pipe, &read_back] { read_back = read_frame(pipe.read_fd); }};
    EXPECT_TRUE(write_frame(pipe.write_fd, payload));
    reader.join();
    ASSERT_TRUE(read_back.has_value());
    EXPECT_TRUE(*read_back == payload);
}

// --- Trace context header -----------------------------------------------------

TEST(ProtocolTest, TraceHeaderRoundTripsAndDefaultsToNone) {
    Request req;
    req.verb = Verb::Query;
    req.experiment = "fig3";
    req.trace_id = 0x0123456789ABCDEFull;
    req.trace_parent = 0xFEDCBA9876543210ull;
    req.trace_flags = 3;
    ASSERT_TRUE(req.has_trace());

    std::string error;
    const auto parsed = parse_request(req.encode(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->trace_id, 0x0123456789ABCDEFull);
    EXPECT_EQ(parsed->trace_parent, 0xFEDCBA9876543210ull);
    EXPECT_EQ(parsed->trace_flags, 3u);

    // An untraced request omits the header entirely.
    Request plain = req;
    plain.trace_id = 0;
    EXPECT_FALSE(plain.has_trace());
    EXPECT_EQ(plain.encode().find("trace "), std::string::npos);
    const auto plain_parsed = parse_request(plain.encode());
    ASSERT_TRUE(plain_parsed.has_value());
    EXPECT_EQ(plain_parsed->trace_id, 0u);
    EXPECT_EQ(plain_parsed->trace_flags, 0u);
}

TEST(ProtocolTest, TraceHeaderNeverMovesRouteKey) {
    Request req;
    req.verb = Verb::Query;
    req.experiment = "fig7";
    req.seed = 42;
    const std::string key = route_key(req);
    Request traced = req;
    traced.trace_id = 0xABC;
    traced.trace_parent = 0xDEF;
    traced.trace_flags = 1;
    EXPECT_EQ(route_key(traced), key);
}

TEST(ProtocolTest, MalformedTraceHeaderIsRejected) {
    const struct {
        const char* trace_line;
    } cases[] = {
        {"trace\n"},                       // no fields
        {"trace 0x1\n"},                   // too few
        {"trace 0x1 0x2\n"},               // too few
        {"trace 0x1 0x2 1 junk\n"},        // too many
        {"trace zzz 0x2 1\n"},             // bad trace_id
        {"trace 0x1 yyy 1\n"},             // bad parent
        {"trace 0x1 0x2 banana\n"},        // bad flags
    };
    for (const auto& c : cases) {
        const std::string wire = std::string{kMagic}
                                     .append("\nverb ping\n")
                                     .append(c.trace_line)
                                     .append("deadline-ms 0\n");
        std::string error;
        EXPECT_FALSE(parse_request(wire, &error).has_value()) << c.trace_line;
        EXPECT_NE(error.find("trace"), std::string::npos) << error;
    }
}

TEST(ProtocolTest, TraceDumpAndDumpVerbsRoundTrip) {
    for (const Verb verb : {Verb::TraceDump, Verb::Dump}) {
        Request req;
        req.verb = verb;
        const auto parsed = parse_request(req.encode());
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->verb, verb);
    }
    EXPECT_EQ(name(Verb::TraceDump), "trace_dump");
    EXPECT_EQ(name(Verb::Dump), "dump");
}

TEST(ProtocolTest, CallBatchForwardsTraceHeaders) {
    StreamPair fds;
    std::vector<Request> requests(1);
    requests[0].verb = Verb::Ping;
    requests[0].trace_id = 0x4444;
    requests[0].trace_flags = 1;

    std::thread server{[&fds] {
        const auto frame = read_frame(fds.server);
        ASSERT_TRUE(frame.has_value());
        const auto batch = parse_batch(*frame);
        ASSERT_TRUE(batch.has_value());
        ASSERT_EQ(batch->size(), 1u);
        EXPECT_EQ((*batch)[0].trace_id, 0x4444u);
        Response resp;
        resp.payload = "pong";
        resp.tag = (*batch)[0].tag;
        ASSERT_TRUE(write_frame(fds.server, resp.encode()));
    }};

    FrameReader reader{fds.client};
    const auto responses = receive_batch(reader, send_batch(fds.client, requests));
    server.join();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].payload, "pong");
}
