// Seeded mutation fuzzing of the wire parsers: parse_request, parse_batch
// and parse_response. A corpus of valid frames (every verb, error code and
// source; tags, trace headers, deadlines, empty and binary payloads; batches
// of 1-16 requests) is mutated by byte flips, truncations, deleted or
// duplicated lines, rewritten 4-byte length prefixes and spliced frames,
// all driven by one fixed util::Rng seed, so every run sees the same bytes.
//
// Every input goes to all three parsers. None may throw. Whatever a parser
// accepts must re-encode to bytes that parse back to the same encoding:
// encode(parse(x)) is a fixed point of encode(parse(.)).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/ctx.hpp"
#include "service/protocol.hpp"
#include "util/rng.hpp"

namespace hsw::service::protocol {
namespace {

/// One corpus frame and the offsets of its 4-byte length prefixes (batch
/// sub-requests; empty for a single request or response).
struct Seed {
    std::string bytes;
    std::vector<std::size_t> prefixes;
};

std::vector<Request> request_corpus() {
    std::vector<Request> out;
    for (const Verb verb : {Verb::Ping, Verb::Query, Verb::Stats, Verb::Shutdown,
                            Verb::Metrics, Verb::Health, Verb::TraceDump, Verb::Dump}) {
        Request req;
        req.verb = verb;
        req.experiment = "fig3";
        out.push_back(req);  // bare: untagged, no trace, no deadline

        req.tag = 0xFFFFFFFFFFFFFFFFull;
        req.trace_id = 0x0123456789ABCDEFull;
        req.trace_parent = 42;
        req.trace_flags = obs::trace::kFlagSampled | obs::trace::kFlagForced;
        req.deadline_ms = 0xFFFFFFFFu;
        out.push_back(req);
    }
    Request query;
    query.verb = Verb::Query;
    query.experiment = "table5";
    query.point = "firestarter/epb=performance";
    query.seed = 0;
    query.audit = analysis::AuditMode::Strict;
    query.quick = true;
    query.tag = 1;
    query.deadline_ms = 5000;
    out.push_back(query);
    query.audit = analysis::AuditMode::Warn;
    query.seed = 0x8000000000000000ull;
    query.trace_id = 1;
    out.push_back(query);
    Request metrics;
    metrics.verb = Verb::Metrics;
    metrics.format = MetricsFormat::Json;
    metrics.tag = 9;
    out.push_back(metrics);
    return out;
}

std::vector<Response> response_corpus() {
    std::string binary;
    for (int b = 0; b < 256; ++b) binary += static_cast<char>(b);
    binary += "\npayload-bytes 3\n";  // header lookalikes inside the payload

    std::vector<Response> out;
    for (const ErrorCode code :
         {ErrorCode::None, ErrorCode::MalformedRequest, ErrorCode::UnknownExperiment,
          ErrorCode::UnknownPoint, ErrorCode::Overloaded, ErrorCode::DeadlineExceeded,
          ErrorCode::ShuttingDown, ErrorCode::Internal, ErrorCode::Unavailable}) {
        for (const Source source : {Source::HotCache, Source::DiskCache, Source::Computed}) {
            if (code != ErrorCode::None && source != Source::Computed) continue;
            Response resp;
            resp.code = code;
            resp.source = source;
            out.push_back(resp);  // empty payload, untagged
            resp.tag = 77;
            resp.payload = binary;
            out.push_back(resp);
        }
    }
    return out;
}

std::vector<Seed> corpus() {
    std::vector<Seed> out;
    const std::vector<Request> requests = request_corpus();
    for (const Request& req : requests) out.push_back({req.encode(), {}});
    for (const Response& resp : response_corpus()) out.push_back({resp.encode(), {}});

    util::Rng rng{0xBA7C4};
    for (std::size_t n = 1; n <= 16; ++n) {
        std::vector<Request> batch;
        for (std::size_t i = 0; i < n; ++i) {
            Request req = requests[rng.uniform_u64(requests.size())];
            req.tag = rng.uniform_u64(2) == 0 ? 0 : i + 1;  // unique or untagged
            batch.push_back(std::move(req));
        }
        Seed seed{encode_batch(batch), {}};
        // The header is three lines; each sub-request follows its prefix.
        std::size_t at = 0;
        for (int line = 0; line < 3; ++line) at = seed.bytes.find('\n', at) + 1;
        for (const Request& req : batch) {
            seed.prefixes.push_back(at);
            at += 4 + req.encode().size();
        }
        out.push_back(std::move(seed));
    }
    return out;
}

/// Printable rendering of a failing input for the failure message.
std::string escaped(std::string_view bytes) {
    std::string out;
    for (const char c : bytes.substr(0, 512)) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '\n') {
            out += "\\n";
        } else if (u < 0x20 || u >= 0x7F || c == '\\') {
            static constexpr char kHex[] = "0123456789abcdef";
            out += "\\x";
            out += kHex[u >> 4];
            out += kHex[u & 0xF];
        } else {
            out += c;
        }
    }
    return out;
}

/// What the three parsers made of the inputs, and the first failure seen.
struct Tally {
    std::size_t inputs = 0;
    std::size_t accepted = 0;  // by at least one parser
    std::size_t failures = 0;
    std::string first_failure;

    void fail(std::string_view what, std::string_view input) {
        if (failures++ == 0) {
            first_failure = std::string{what} + " on input \"" + escaped(input) + '"';
        }
    }
};

/// `encode(parse(x))` for the parser `Parse`, which must be a fixed point.
template <typename Parse, typename Encode>
void check_fixed_point(std::string_view input, const char* parser, Parse parse,
                       Encode encode, Tally& tally, bool& accepted) {
    const auto first = parse(input);
    if (!first) return;
    accepted = true;
    const std::string once = encode(*first);
    const auto second = parse(once);
    if (!second) {
        tally.fail(std::string{parser} + " rejected its own re-encoding", input);
    } else if (encode(*second) != once) {
        tally.fail(std::string{parser} + " re-encoding is not a fixed point", input);
    }
}

void check(std::string_view input, Tally& tally) {
    ++tally.inputs;
    bool accepted = false;
    try {
        check_fixed_point(
            input, "parse_request", [](std::string_view t) { return parse_request(t); },
            [](const Request& r) { return r.encode(); }, tally, accepted);
        check_fixed_point(
            input, "parse_batch", [](std::string_view t) { return parse_batch(t); },
            [](const std::vector<Request>& b) { return encode_batch(b); }, tally,
            accepted);
        check_fixed_point(
            input, "parse_response", [](std::string_view t) { return parse_response(t); },
            [](const Response& r) { return r.encode(); }, tally, accepted);
    } catch (const std::exception& e) {
        tally.fail(std::string{"a parser threw: "} + e.what(), input);
    }
    if (accepted) ++tally.accepted;
}

/// Runs `rounds` mutations of random corpus frames through check().
template <typename Mutate>
Tally fuzz(std::uint64_t seed, std::size_t rounds, Mutate mutate) {
    const std::vector<Seed> seeds = corpus();
    util::Rng rng{seed};
    Tally tally;
    for (std::size_t i = 0; i < rounds; ++i) {
        const Seed& s = seeds[rng.uniform_u64(seeds.size())];
        check(mutate(rng, s, seeds), tally);
    }
    return tally;
}

std::vector<std::string_view> lines_of(std::string_view bytes) {
    std::vector<std::string_view> lines;
    while (!bytes.empty()) {
        const std::size_t eol = bytes.find('\n');
        const std::size_t len = eol == std::string_view::npos ? bytes.size() : eol + 1;
        lines.push_back(bytes.substr(0, len));
        bytes.remove_prefix(len);
    }
    return lines;
}

constexpr std::size_t kRounds = 20000;

TEST(ProtocolFuzz, CorpusRoundTrips) {
    Tally tally;
    for (const Seed& s : corpus()) check(s.bytes, tally);
    EXPECT_EQ(tally.failures, 0u) << tally.first_failure;
    EXPECT_EQ(tally.accepted, tally.inputs) << "every corpus frame is valid";
}

TEST(ProtocolFuzz, ByteFlips) {
    const Tally tally = fuzz(1, kRounds, [](util::Rng& rng, const Seed& s, const auto&) {
        std::string bytes = s.bytes;
        const auto flips = 1 + rng.uniform_u64(4);
        for (std::uint64_t f = 0; f < flips; ++f) {
            const auto at = rng.uniform_u64(bytes.size());
            bytes[at] = static_cast<char>(bytes[at] ^ (1u << rng.uniform_u64(8)));
        }
        return bytes;
    });
    EXPECT_EQ(tally.failures, 0u) << tally.first_failure;
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_LT(tally.accepted, tally.inputs);
}

TEST(ProtocolFuzz, Truncations) {
    const Tally tally = fuzz(2, kRounds, [](util::Rng& rng, const Seed& s, const auto&) {
        return s.bytes.substr(0, rng.uniform_u64(s.bytes.size() + 1));
    });
    EXPECT_EQ(tally.failures, 0u) << tally.first_failure;
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_LT(tally.accepted, tally.inputs);
}

TEST(ProtocolFuzz, DeletedAndDuplicatedLines) {
    const Tally tally = fuzz(3, kRounds, [](util::Rng& rng, const Seed& s, const auto&) {
        auto lines = lines_of(s.bytes);
        const auto at = rng.uniform_u64(lines.size());
        if (rng.uniform_u64(2) == 0) {
            lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
        } else {
            const std::string_view line = lines[at];
            lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), line);
        }
        std::string bytes;
        for (const std::string_view line : lines) bytes += line;
        return bytes;
    });
    EXPECT_EQ(tally.failures, 0u) << tally.first_failure;
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_LT(tally.accepted, tally.inputs);
}

TEST(ProtocolFuzz, RewrittenLengthPrefixes) {
    const Tally tally = fuzz(4, kRounds, [](util::Rng& rng, const Seed& s, const auto&) {
        std::string bytes = s.bytes;
        // Single frames have no prefix: rewrite four bytes anywhere.
        const std::size_t at = s.prefixes.empty()
                                   ? rng.uniform_u64(bytes.size() - 3)
                                   : s.prefixes[rng.uniform_u64(s.prefixes.size())];
        const auto old = frame_length(bytes.data() + at).value_or(0);
        std::uint32_t len = 0;
        switch (rng.uniform_u64(5)) {
            case 0: len = 0; break;
            case 1: len = old - 1; break;
            case 2: len = old + 1; break;
            case 3: len = kMaxFrameBytes + 1; break;
            default: len = static_cast<std::uint32_t>(rng.next_u64()); break;
        }
        const auto prefix = frame_prefix(len);
        bytes.replace(at, prefix.size(), prefix.data(), prefix.size());
        return bytes;
    });
    EXPECT_EQ(tally.failures, 0u) << tally.first_failure;
    EXPECT_LT(tally.accepted, tally.inputs);
}

/// A cut point in `bytes`: any offset, or (half the time) a line start.
std::size_t cut(util::Rng& rng, std::string_view bytes) {
    if (rng.uniform_u64(2) == 0) return rng.uniform_u64(bytes.size() + 1);
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        if (bytes[i] == '\n') starts.push_back(i + 1);
    }
    return starts[rng.uniform_u64(starts.size())];
}

TEST(ProtocolFuzz, SplicedFrames) {
    const Tally tally =
        fuzz(5, kRounds, [](util::Rng& rng, const Seed& s, const std::vector<Seed>& seeds) {
            const Seed& other = seeds[rng.uniform_u64(seeds.size())];
            const std::size_t head = cut(rng, s.bytes);
            const std::size_t tail = cut(rng, other.bytes);
            return s.bytes.substr(0, head) + other.bytes.substr(tail);
        });
    EXPECT_EQ(tally.failures, 0u) << tally.first_failure;
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_LT(tally.accepted, tally.inputs);
}

}  // namespace
}  // namespace hsw::service::protocol
