// The survey service's request/response protocol, hsw-survey-rpc v2.
//
// Transport framing is a 4-byte big-endian payload length followed by the
// payload -- trivially parseable from any language, bounded so a garbage
// length can't allocate unbounded memory. Frame payloads are line-based
// text headers (in the spirit of the spec's canonical serialization:
// inspectable with a pager) followed by length-prefixed raw bytes. A
// request:
//
//   hsw-survey-rpc v2\n
//   verb query\n
//   experiment fig3\n          (query only)
//   point *\n                  (query only; "*" = whole experiment)
//   seed 0x0000000000c0ffee\n  (query only)
//   audit off\n                (query only)
//   quick 0\n                  (query only)
//   format prometheus\n        (metrics only; or "json")
//   tag 7\n                    (optional, nonzero)
//   trace <trace_id> <parent_span_id> <flags>\n   (optional)
//   deadline-ms 5000\n         (0 = no deadline)
//
// Verbs: `query` runs or looks up an experiment; `ping`, `stats`,
// `shutdown`; `metrics` scrapes the process-wide obs registry (payload =
// the exposition text); `health` is the fleet prober's liveness check
// (payload "ok" while serving, "draining" once shutdown began);
// `trace_dump` answers with the Chrome trace-event JSON of the server's
// span ring; `dump` writes a flight-recorder snapshot and answers with its
// path. Integers are a decimal without leading zeros or 0x plus 1-16 hex
// digits -- the two forms the encoders emit.
//
// `tag` is a client-chosen correlation id echoed on the response. A
// `batch` frame carries many requests at once for pipelining:
//
//   hsw-survey-rpc v2\n
//   verb batch\n
//   count 3\n
//   <u32-BE len><encoded sub-request> x 3
//
// The server answers a batch with `count` individual response frames, each
// echoing its sub-request's tag. Tagged responses may arrive in any order
// (the server flushes completions as they land); untagged requests are
// answered strictly in request order. A nonzero tag may appear only once
// per batch; tag 0 (untagged) may repeat. A malformed batch, a repeated
// tag included, is rejected whole with one untagged MalformedRequest.
//
// `trace` carries the caller's distributed trace context (obs/ctx.hpp):
// u64 trace id, u64 parent span id, u32 flags; encoders emit 0x-hex ids.
// Like `tag`, it is pure telemetry: it never participates in route_key and
// never changes payload bytes.
//
// Responses carry a status, a structured error code on rejection, the
// payload's provenance (hot cache / disk cache / computed) on success, and
// the payload bytes. A whole-experiment payload is a blob (see
// engine/blob.hpp) with one section per artifact, named "csv:<filename>"
// or "render:<filename>" in assembly order; a single-point payload is the
// job's raw payload blob, byte-identical to what the batch engine caches.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/audit_config.hpp"

namespace hsw::service::protocol {

/// The first line of every frame, naming the one protocol version. Every
/// peer is built from this tree, so any wire change bumps it -- there are
/// no minor revisions and no capability probes. A frame under any other
/// first line gets one MalformedRequest naming both versions.
inline constexpr std::string_view kMagic = "hsw-survey-rpc v2";

/// Hard ceiling on a single frame, request or response. Large enough for
/// any assembled survey artifact set, small enough that a malicious or
/// corrupt length prefix cannot balloon memory.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Ceiling on sub-requests per batch frame. Generous for pipelining
/// (hsw_query caps --pipeline far lower) while bounding the per-frame
/// work a single connection can queue against the admission controller.
inline constexpr std::uint32_t kMaxBatchRequests = 1024;

enum class Verb { Ping, Query, Stats, Shutdown, Metrics, Health, TraceDump, Dump };

/// Exposition format for the `metrics` verb.
enum class MetricsFormat { Prometheus, Json };

/// Structured rejection reasons; the numeric value is wire ABI, append only.
enum class ErrorCode {
    None = 0,
    MalformedRequest = 1,
    UnknownExperiment = 2,
    UnknownPoint = 3,
    Overloaded = 4,        // admission control: bounded queue full
    DeadlineExceeded = 5,  // request deadline elapsed before completion
    ShuttingDown = 6,      // service is draining
    Internal = 7,          // job threw; message carries the what()
    Unavailable = 8,       // router exhausted every replica of a shard
};

/// Provenance of a successful response's payload. A whole-experiment query
/// reports the *worst* source over its jobs (computed > disk > hot), so
/// "hot" means every job was served from memory.
enum class Source { HotCache, DiskCache, Computed };

[[nodiscard]] std::string_view name(Verb v);
[[nodiscard]] std::string_view name(ErrorCode c);
[[nodiscard]] std::string_view name(Source s);
[[nodiscard]] std::string_view name(MetricsFormat f);

struct Request {
    Verb verb = Verb::Ping;
    std::string experiment;     // query only
    std::string point = "*";    // "*" = all points, assembled
    std::uint64_t seed = 0xC0FFEE;
    analysis::AuditMode audit = analysis::AuditMode::Off;
    bool quick = false;         // SurveyTuning::quick() parameters
    std::uint32_t deadline_ms = 0;  // 0 = none
    MetricsFormat format = MetricsFormat::Prometheus;  // metrics verb only
    /// Pipelining correlation id; 0 = untagged (strict-order reply).
    /// Chosen by the client, echoed verbatim on the response, and excluded
    /// from route_key (it never affects payload bytes).
    std::uint64_t tag = 0;
    /// Distributed trace context (obs/ctx.hpp semantics); trace_id 0
    /// means "no context" and the header is omitted from the wire. Like
    /// tag, never part of route_key and never affects payload bytes.
    std::uint64_t trace_id = 0;
    std::uint64_t trace_parent = 0;   // caller's span_id
    std::uint32_t trace_flags = 0;    // kFlagSampled / kFlagForced

    [[nodiscard]] bool has_trace() const { return trace_id != 0; }

    [[nodiscard]] std::string encode() const;
};

/// nullopt on malformed input; `error` (when non-null) gets a one-line
/// reason suitable for a MalformedRequest response.
[[nodiscard]] std::optional<Request> parse_request(std::string_view text,
                                                   std::string* error = nullptr);

/// Stable routing identity of a query: the SHA-256 hex digest of the
/// request's canonical identity fields (experiment, point, seed, audit,
/// quick). Deliberately excludes deadline-ms and format -- two queries
/// that would produce byte-identical payloads route identically, so a
/// fleet's hot caches see every repeat of a spec on the same shard. A
/// whole-experiment query ("point *") routes as one unit for the same
/// reason. Non-query verbs hash their verb name (callers normally route
/// those by policy, not by key).
[[nodiscard]] std::string route_key(const Request& req);

struct Response {
    ErrorCode code = ErrorCode::None;  // None == success
    Source source = Source::Computed;  // success only
    std::string payload;  // artifacts blob / job blob / stats text / error detail
    /// Zero-copy alternative to `payload`: when set it IS the payload
    /// (hot-cache hits hand the cached allocation straight to the encoder;
    /// no multi-MB copy per response). `payload` is ignored while this is
    /// non-null. parse_response always fills `payload`.
    std::shared_ptr<const std::string> shared_payload;
    /// Echo of the request's tag; 0 = untagged.
    std::uint64_t tag = 0;

    [[nodiscard]] bool ok() const { return code == ErrorCode::None; }
    [[nodiscard]] std::string_view payload_view() const {
        return shared_payload ? std::string_view{*shared_payload}
                              : std::string_view{payload};
    }
    [[nodiscard]] std::string encode() const;
    /// The header portion of encode() -- everything through the
    /// "payload-bytes N\n" line, without the payload bytes. The reactor
    /// writes header + payload_view() as one writev, so a cached payload
    /// is never copied into a per-response string.
    [[nodiscard]] std::string encode_header() const;
};

[[nodiscard]] std::optional<Response> parse_response(std::string_view text,
                                                     std::string* error = nullptr);

// --- Batch frames (request pipelining) ---

/// Cheap structural check: does this frame start with the magic and
/// `verb batch`? True means parse_batch() is the right parser (its failure
/// is then a malformed *batch*, answered with one MalformedRequest frame
/// for the whole batch); false means the frame is a plain single request.
[[nodiscard]] bool looks_like_batch(std::string_view text);

/// Encodes many requests into one batch frame (see the header comment for
/// the wire layout). Nonzero sub-request tags must be unique within the
/// batch, or parse_batch rejects it; any number may be untagged (0).
[[nodiscard]] std::string encode_batch(const std::vector<Request>& requests);

/// nullopt (with `error` set) on any structural or sub-request defect:
/// bad count, count/body mismatch, truncated length prefix, oversized
/// batch, an unparseable sub-request, or a nonzero tag that two
/// sub-requests share. A batch is rejected whole.
[[nodiscard]] std::optional<std::vector<Request>> parse_batch(
    std::string_view text, std::string* error = nullptr);

// --- Frame I/O over file descriptors (sockets, pipes) ---

/// The 4-byte big-endian prefix of a `len`-byte frame (also the layout of
/// a batch's sub-request length prefixes).
[[nodiscard]] std::array<char, 4> frame_prefix(std::uint32_t len);

/// The payload length that a 4-byte prefix announces, or nullopt when it
/// exceeds kMaxFrameBytes. Every frame reader decodes prefixes here.
[[nodiscard]] std::optional<std::uint32_t> frame_length(const char* prefix);

/// Writes the 4-byte length prefix plus the payload with one sendmsg, so a
/// small frame leaves as one segment; resumes short writes across both
/// parts, and uses writev on a non-socket fd (a pipe). False on any I/O
/// error or when `payload` exceeds kMaxFrameBytes.
bool write_frame(int fd, std::string_view payload);

/// Reads exactly one frame, never a byte past it. nullopt on clean EOF
/// before the first byte, on a truncated frame, on I/O error, or on an
/// oversized length prefix.
[[nodiscard]] std::optional<std::string> read_frame(int fd);

/// Buffered frame reader for one blocking fd: each read takes whatever the
/// fd holds into a buffer the reader owns, and frames are split out of it,
/// so a burst of replies costs one read instead of two per frame. Once an
/// fd has a reader, every read of it must go through that reader -- bytes
/// it buffered are invisible to read_frame(). The buffer starts small,
/// grows only to fit a frame, and is released when it drains after a
/// frame larger than kRetainBytes.
class FrameReader {
public:
    explicit FrameReader(int fd) : fd_{fd} {}

    /// The next frame's payload, valid until the next call. nullopt on
    /// clean EOF, EOF mid-frame, I/O error (an SO_RCVTIMEO expiry too) or
    /// an oversized length prefix; the stream is then unusable.
    [[nodiscard]] std::optional<std::string_view> next_frame();

    /// Bytes read from the fd but not yet returned in a frame.
    [[nodiscard]] std::size_t buffered() const { return end_ - begin_; }

private:
    static constexpr std::size_t kInitialBytes = 16u << 10;
    static constexpr std::size_t kRetainBytes = 1u << 20;

    /// Reads until `want` unread bytes are buffered; false on EOF or error.
    bool fill(std::size_t want);

    int fd_;
    std::unique_ptr<char[]> buf_;
    std::size_t capacity_ = 0;
    std::size_t begin_ = 0;  // first unread byte
    std::size_t end_ = 0;    // one past the last buffered byte
};

/// One request, one reply over a connected fd and its reader. Throws
/// std::runtime_error on a failed write, EOF or timeout, a bad frame, or
/// bytes past the reply (the stream is then poisoned).
[[nodiscard]] Response round_trip(int fd, FrameReader& reader, const Request& request);

/// A batch that send_batch wrote and receive_batch has yet to read: which
/// request each wire tag answers, sorted by tag.
struct PendingBatch {
    struct Slot {
        std::uint64_t tag = 0;
        std::size_t index = 0;  // the request's position in the batch
        bool assigned = false;  // send_batch chose the tag: strip it again
        bool answered = false;
    };
    std::vector<Slot> slots;
};

/// Send half of client-side pipelining, shared by ServiceClient and the
/// router's upstream connections: keeps caller-assigned nonzero tags, gives
/// every untagged sub-request a tag no other one uses, and writes one batch
/// frame. Throws std::runtime_error on a duplicate caller tag or a failed
/// write. An empty batch writes nothing.
[[nodiscard]] PendingBatch send_batch(int fd, std::vector<Request> requests);

/// Receive half: reads one response per sub-request through `reader`,
/// puts the (possibly out-of-order) tagged responses back in request order
/// and strips the tags send_batch chose. Throws std::runtime_error on EOF
/// or timeout, a bad frame, an unknown or repeated tag, or bytes past the
/// last reply (the stream is then poisoned).
[[nodiscard]] std::vector<Response> receive_batch(FrameReader& reader,
                                                  PendingBatch batch);

}  // namespace hsw::service::protocol
