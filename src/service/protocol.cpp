#include "service/protocol.hpp"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "engine/sha256.hpp"
#include "engine/spec.hpp"  // engine::name(AuditMode)
#include "util/parse.hpp"

namespace hsw::service::protocol {

namespace {

using util::parse_u64;

void set_error(std::string* error, std::string_view reason) {
    if (error) *error = std::string{reason};
}

/// Consumes "<key> <value>\n" from the front of `text`; empty value lines
/// ("<key>\n") are legal. False when `text` is exhausted.
bool next_line(std::string_view& text, std::string_view& key, std::string_view& value) {
    if (text.empty()) return false;
    const std::size_t eol = text.find('\n');
    std::string_view line = eol == std::string_view::npos ? text : text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos) {
        key = line;
        value = {};
    } else {
        key = line.substr(0, space);
        value = line.substr(space + 1);
    }
    return true;
}

bool parse_bool(std::string_view text, bool& out) {
    if (text == "0") {
        out = false;
    } else if (text == "1") {
        out = true;
    } else {
        return false;
    }
    return true;
}

/// Consumes the first line, which must be exactly kMagic.
bool consume_magic(std::string_view& text, std::string* error) {
    const std::size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    if (line == kMagic) {
        text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
        return true;
    }
    if (error) {
        // Echo a bounded prefix: the line is whatever the peer sent.
        *error = "unsupported protocol version '";
        error->append(line.substr(0, 64));
        error->append("' (expected '").append(kMagic).append("')");
    }
    return false;
}

/// Full I/O loop; false on error or EOF before `len` bytes.
bool read_exact(int fd, char* buf, std::size_t len) {
    while (len > 0) {
        const ssize_t n = ::read(fd, buf, len);
        if (n == 0) return false;
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        buf += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

}  // namespace

std::string_view name(Verb v) {
    switch (v) {
        case Verb::Ping: return "ping";
        case Verb::Query: return "query";
        case Verb::Stats: return "stats";
        case Verb::Shutdown: return "shutdown";
        case Verb::Metrics: return "metrics";
        case Verb::Health: return "health";
        case Verb::TraceDump: return "trace_dump";
        case Verb::Dump: return "dump";
    }
    return "ping";
}

std::string_view name(MetricsFormat f) {
    switch (f) {
        case MetricsFormat::Prometheus: return "prometheus";
        case MetricsFormat::Json: return "json";
    }
    return "prometheus";
}

std::string_view name(ErrorCode c) {
    switch (c) {
        case ErrorCode::None: return "none";
        case ErrorCode::MalformedRequest: return "malformed-request";
        case ErrorCode::UnknownExperiment: return "unknown-experiment";
        case ErrorCode::UnknownPoint: return "unknown-point";
        case ErrorCode::Overloaded: return "overloaded";
        case ErrorCode::DeadlineExceeded: return "deadline-exceeded";
        case ErrorCode::ShuttingDown: return "shutting-down";
        case ErrorCode::Internal: return "internal";
        case ErrorCode::Unavailable: return "unavailable";
    }
    return "internal";
}

std::string_view name(Source s) {
    switch (s) {
        case Source::HotCache: return "hot-cache";
        case Source::DiskCache: return "disk-cache";
        case Source::Computed: return "computed";
    }
    return "computed";
}

std::string Request::encode() const {
    std::string out{kMagic};
    out += '\n';
    out += "verb ";
    out += name(verb);
    out += '\n';
    if (verb == Verb::Query) {
        out += "experiment " + experiment + '\n';
        out += "point " + point + '\n';
        char seed_buf[32];
        std::snprintf(seed_buf, sizeof seed_buf, "seed 0x%016llx\n",
                      static_cast<unsigned long long>(seed));
        out += seed_buf;
        out += "audit ";
        out += engine::name(audit);
        out += '\n';
        out += "quick ";
        out += quick ? '1' : '0';
        out += '\n';
    }
    if (verb == Verb::Metrics) {
        out += "format ";
        out += name(format);
        out += '\n';
    }
    if (tag != 0) out += "tag " + std::to_string(tag) + '\n';
    if (trace_id != 0) {
        char trace_buf[64];
        std::snprintf(trace_buf, sizeof trace_buf,
                      "trace 0x%016llx 0x%016llx %u\n",
                      static_cast<unsigned long long>(trace_id),
                      static_cast<unsigned long long>(trace_parent),
                      trace_flags);
        out += trace_buf;
    }
    out += "deadline-ms " + std::to_string(deadline_ms) + '\n';
    return out;
}

std::optional<Request> parse_request(std::string_view text, std::string* error) {
    if (!consume_magic(text, error)) return std::nullopt;

    Request req;
    bool have_verb = false;
    std::string_view key, value;
    while (next_line(text, key, value)) {
        if (key == "verb") {
            if (value == "ping") {
                req.verb = Verb::Ping;
            } else if (value == "query") {
                req.verb = Verb::Query;
            } else if (value == "stats") {
                req.verb = Verb::Stats;
            } else if (value == "shutdown") {
                req.verb = Verb::Shutdown;
            } else if (value == "metrics") {
                req.verb = Verb::Metrics;
            } else if (value == "health") {
                req.verb = Verb::Health;
            } else if (value == "trace_dump") {
                req.verb = Verb::TraceDump;
            } else if (value == "dump") {
                req.verb = Verb::Dump;
            } else {
                set_error(error, "unknown verb");
                return std::nullopt;
            }
            have_verb = true;
        } else if (key == "experiment") {
            req.experiment = std::string{value};
        } else if (key == "point") {
            if (value.empty()) {
                set_error(error, "empty point");
                return std::nullopt;
            }
            req.point = std::string{value};
        } else if (key == "seed") {
            if (!parse_u64(value, req.seed)) {
                set_error(error, "bad seed");
                return std::nullopt;
            }
        } else if (key == "audit") {
            if (value == "off") {
                req.audit = analysis::AuditMode::Off;
            } else if (value == "warn") {
                req.audit = analysis::AuditMode::Warn;
            } else if (value == "strict") {
                req.audit = analysis::AuditMode::Strict;
            } else {
                set_error(error, "bad audit mode");
                return std::nullopt;
            }
        } else if (key == "quick") {
            if (!parse_bool(value, req.quick)) {
                set_error(error, "bad quick flag");
                return std::nullopt;
            }
        } else if (key == "format") {
            if (value == "prometheus") {
                req.format = MetricsFormat::Prometheus;
            } else if (value == "json") {
                req.format = MetricsFormat::Json;
            } else {
                set_error(error, "bad metrics format");
                return std::nullopt;
            }
        } else if (key == "deadline-ms") {
            std::uint64_t ms = 0;
            if (!parse_u64(value, ms) || ms > 0xFFFFFFFFull) {
                set_error(error, "bad deadline-ms");
                return std::nullopt;
            }
            req.deadline_ms = static_cast<std::uint32_t>(ms);
        } else if (key == "tag") {
            if (!parse_u64(value, req.tag) || req.tag == 0) {
                set_error(error, "bad tag");
                return std::nullopt;
            }
        } else if (key == "trace") {
            // "<trace_id> <parent_span_id> <flags>".
            const std::size_t s1 = value.find(' ');
            const std::size_t s2 =
                s1 == std::string_view::npos ? s1 : value.find(' ', s1 + 1);
            std::uint64_t flags = 0;
            if (s2 == std::string_view::npos ||
                value.find(' ', s2 + 1) != std::string_view::npos ||
                !parse_u64(value.substr(0, s1), req.trace_id) ||
                !parse_u64(value.substr(s1 + 1, s2 - s1 - 1), req.trace_parent) ||
                !parse_u64(value.substr(s2 + 1), flags) || req.trace_id == 0 ||
                flags > 0xFFFFFFFFull) {
                set_error(error, "bad trace header");
                return std::nullopt;
            }
            req.trace_flags = static_cast<std::uint32_t>(flags);
        } else if (!key.empty()) {
            set_error(error, "unknown request field: " + std::string{key});
            return std::nullopt;
        }
    }
    if (!have_verb) {
        set_error(error, "missing verb");
        return std::nullopt;
    }
    if (req.verb == Verb::Query && req.experiment.empty()) {
        set_error(error, "query without experiment");
        return std::nullopt;
    }
    return req;
}

std::string route_key(const Request& req) {
    if (req.verb != Verb::Query) {
        return engine::sha256_hex(std::string{"verb:"} + std::string{name(req.verb)});
    }
    // Canonical identity text: the query fields that determine the payload
    // bytes, in a fixed order. deadline-ms is a client-side QoS knob and
    // format only applies to metrics, so neither participates.
    std::string canon;
    canon += "experiment " + req.experiment + '\n';
    canon += "point " + req.point + '\n';
    char seed_buf[32];
    std::snprintf(seed_buf, sizeof seed_buf, "seed 0x%016llx\n",
                  static_cast<unsigned long long>(req.seed));
    canon += seed_buf;
    canon += "audit ";
    canon += engine::name(req.audit);
    canon += '\n';
    canon += "quick ";
    canon += req.quick ? '1' : '0';
    canon += '\n';
    return engine::sha256_hex(canon);
}

std::string Response::encode_header() const {
    std::string out{kMagic};
    out += '\n';
    out += ok() ? "status ok\n" : "status error\n";
    if (!ok()) {
        out += "code ";
        out += name(code);
        out += '\n';
    } else {
        out += "source ";
        out += name(source);
        out += '\n';
    }
    if (tag != 0) out += "tag " + std::to_string(tag) + '\n';
    out += "payload-bytes " + std::to_string(payload_view().size()) + '\n';
    return out;
}

std::string Response::encode() const {
    std::string out = encode_header();
    out += payload_view();
    return out;
}

std::optional<Response> parse_response(std::string_view text, std::string* error) {
    if (!consume_magic(text, error)) return std::nullopt;

    Response resp;
    bool have_status = false;
    bool status_ok = false;
    std::string_view key, value;
    while (next_line(text, key, value)) {
        if (key == "status") {
            if (value == "ok") {
                status_ok = true;
            } else if (value == "error") {
                status_ok = false;
            } else {
                set_error(error, "bad status");
                return std::nullopt;
            }
            have_status = true;
        } else if (key == "code") {
            bool known = false;
            for (const ErrorCode c :
                 {ErrorCode::MalformedRequest, ErrorCode::UnknownExperiment,
                  ErrorCode::UnknownPoint, ErrorCode::Overloaded,
                  ErrorCode::DeadlineExceeded, ErrorCode::ShuttingDown,
                  ErrorCode::Internal, ErrorCode::Unavailable}) {
                if (value == name(c)) {
                    resp.code = c;
                    known = true;
                }
            }
            if (!known) {
                set_error(error, "unknown error code");
                return std::nullopt;
            }
        } else if (key == "source") {
            bool known = false;
            for (const Source s :
                 {Source::HotCache, Source::DiskCache, Source::Computed}) {
                if (value == name(s)) {
                    resp.source = s;
                    known = true;
                }
            }
            if (!known) {
                set_error(error, "unknown source");
                return std::nullopt;
            }
        } else if (key == "tag") {
            if (!parse_u64(value, resp.tag) || resp.tag == 0) {
                set_error(error, "bad tag");
                return std::nullopt;
            }
        } else if (key == "payload-bytes") {
            std::uint64_t n = 0;
            if (!parse_u64(value, n) || n != text.size()) {
                set_error(error, "payload length mismatch");
                return std::nullopt;
            }
            resp.payload = std::string{text};
            break;  // everything after this line is payload
        } else {
            set_error(error, "unknown response field: " + std::string{key});
            return std::nullopt;
        }
    }
    if (!have_status) {
        set_error(error, "missing status");
        return std::nullopt;
    }
    if (!status_ok && resp.code == ErrorCode::None) {
        set_error(error, "error status without code");
        return std::nullopt;
    }
    if (status_ok) resp.code = ErrorCode::None;
    return resp;
}

bool looks_like_batch(std::string_view text) {
    std::string_view probe = text;
    if (!consume_magic(probe, nullptr)) return false;
    std::string_view key, value;
    if (!next_line(probe, key, value)) return false;
    return key == "verb" && value == "batch";
}

std::string encode_batch(const std::vector<Request>& requests) {
    std::string out{kMagic};
    out += '\n';
    out += "verb batch\n";
    out += "count " + std::to_string(requests.size()) + '\n';
    for (const Request& req : requests) {
        const std::string body = req.encode();
        const auto prefix = frame_prefix(static_cast<std::uint32_t>(body.size()));
        out.append(prefix.data(), prefix.size());
        out += body;
    }
    return out;
}

std::optional<std::vector<Request>> parse_batch(std::string_view text,
                                                std::string* error) {
    if (!consume_magic(text, error)) return std::nullopt;
    std::string_view key, value;
    if (!next_line(text, key, value) || key != "verb" || value != "batch") {
        set_error(error, "not a batch frame");
        return std::nullopt;
    }
    if (!next_line(text, key, value) || key != "count") {
        set_error(error, "batch missing count");
        return std::nullopt;
    }
    std::uint64_t count = 0;
    if (!parse_u64(value, count) || count == 0 || count > kMaxBatchRequests) {
        set_error(error, "bad batch count");
        return std::nullopt;
    }
    std::vector<Request> out;
    out.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        if (text.size() < 4) {
            set_error(error, "truncated batch length prefix");
            return std::nullopt;
        }
        const auto len = frame_length(text.data());
        text.remove_prefix(4);
        if (!len || text.size() < *len) {
            set_error(error, "truncated batch sub-request");
            return std::nullopt;
        }
        std::string sub_error;
        auto req = parse_request(text.substr(0, *len), &sub_error);
        if (!req) {
            set_error(error,
                      "batch sub-request " + std::to_string(i) + ": " + sub_error);
            return std::nullopt;
        }
        out.push_back(std::move(*req));
        text.remove_prefix(*len);
    }
    if (!text.empty()) {
        set_error(error, "trailing bytes after batch");
        return std::nullopt;
    }
    // Tagged replies are matched to their requests by tag alone.
    std::vector<std::uint64_t> tags;
    tags.reserve(out.size());
    for (const Request& req : out) {
        if (req.tag != 0) tags.push_back(req.tag);
    }
    std::sort(tags.begin(), tags.end());
    if (const auto repeat = std::adjacent_find(tags.begin(), tags.end());
        repeat != tags.end()) {
        set_error(error, "batch repeats tag " + std::to_string(*repeat));
        return std::nullopt;
    }
    return out;
}

std::array<char, 4> frame_prefix(std::uint32_t len) {
    return {static_cast<char>(len >> 24), static_cast<char>(len >> 16),
            static_cast<char>(len >> 8), static_cast<char>(len)};
}

std::optional<std::uint32_t> frame_length(const char* prefix) {
    const auto* p = reinterpret_cast<const unsigned char*>(prefix);
    const std::uint32_t len = (static_cast<std::uint32_t>(p[0]) << 24) |
                              (static_cast<std::uint32_t>(p[1]) << 16) |
                              (static_cast<std::uint32_t>(p[2]) << 8) |
                              static_cast<std::uint32_t>(p[3]);
    if (len > kMaxFrameBytes) return std::nullopt;
    return len;
}

bool write_frame(int fd, std::string_view payload) {
    if (payload.size() > kMaxFrameBytes) return false;
    const auto prefix = frame_prefix(static_cast<std::uint32_t>(payload.size()));
    iovec iov[2] = {{const_cast<char*>(prefix.data()), prefix.size()},
                    {const_cast<char*>(payload.data()), payload.size()}};
    iovec* next = iov;
    std::size_t parts = 2;
    for (bool socket = true; parts > 0;) {
        // MSG_NOSIGNAL: writing into a socket whose peer died must surface
        // as EPIPE (-> false -> the caller's failover path), not SIGPIPE
        // killing the process. The router hits this on every shard death.
        // Frames also flow over pipes (tests), where sendmsg() is ENOTSOCK
        // -- writev() there.
        msghdr msg{};
        msg.msg_iov = next;
        msg.msg_iovlen = parts;
        const ssize_t n = socket ? ::sendmsg(fd, &msg, MSG_NOSIGNAL)
                                 : ::writev(fd, next, static_cast<int>(parts));
        if (n < 0) {
            if (errno == ENOTSOCK && socket) {
                socket = false;
                continue;
            }
            if (errno == EINTR) continue;
            return false;
        }
        // Resume a short write where it stopped, in either part.
        auto sent = static_cast<std::size_t>(n);
        while (parts > 0 && sent >= next->iov_len) {
            sent -= next->iov_len;
            ++next;
            --parts;
        }
        if (parts > 0) {
            next->iov_base = static_cast<char*>(next->iov_base) + sent;
            next->iov_len -= sent;
        }
    }
    return true;
}

std::optional<std::string> read_frame(int fd) {
    char prefix[4];
    if (!read_exact(fd, prefix, sizeof prefix)) return std::nullopt;
    const auto len = frame_length(prefix);
    if (!len) return std::nullopt;
    std::string payload(*len, '\0');
    if (!read_exact(fd, payload.data(), payload.size())) return std::nullopt;
    return payload;
}

std::optional<std::string_view> FrameReader::next_frame() {
    if (begin_ == end_) {
        // Drained: restart at the front, and let go of a buffer that grew
        // for one large frame.
        begin_ = end_ = 0;
        if (capacity_ > kRetainBytes) {
            buf_.reset();
            capacity_ = 0;
        }
    }
    if (!fill(4)) return std::nullopt;
    const auto len = frame_length(buf_.get() + begin_);
    if (!len || !fill(4u + *len)) return std::nullopt;
    const std::string_view payload{buf_.get() + begin_ + 4, *len};
    begin_ += 4u + *len;
    return payload;
}

bool FrameReader::fill(std::size_t want) {
    if (end_ - begin_ >= want) return true;
    if (capacity_ - begin_ < want) {
        // The frame does not fit behind the unread bytes: move them to
        // the front, into a buffer that holds the whole frame.
        const std::size_t unread = end_ - begin_;
        if (capacity_ < want) {
            const std::size_t capacity = std::max(want, kInitialBytes);
            auto grown = std::make_unique_for_overwrite<char[]>(capacity);
            if (unread > 0) std::memcpy(grown.get(), buf_.get() + begin_, unread);
            buf_ = std::move(grown);
            capacity_ = capacity;
        } else if (unread > 0) {
            std::memmove(buf_.get(), buf_.get() + begin_, unread);
        }
        begin_ = 0;
        end_ = unread;
    }
    while (end_ - begin_ < want) {
        // Ask for all the free space: one read takes a whole reply burst.
        const ssize_t n = ::read(fd_, buf_.get() + end_, capacity_ - end_);
        if (n > 0) {
            end_ += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        return false;
    }
    return true;
}

Response round_trip(int fd, FrameReader& reader, const Request& request) {
    if (!write_frame(fd, request.encode())) {
        throw std::runtime_error{"request write failed"};
    }
    const auto frame = reader.next_frame();
    if (!frame) throw std::runtime_error{"connection closed or timed out mid-response"};
    std::string error;
    auto response = parse_response(*frame, &error);
    if (!response) throw std::runtime_error{"bad response frame: " + error};
    if (reader.buffered() != 0) throw std::runtime_error{"bytes past the reply"};
    return std::move(*response);
}

PendingBatch send_batch(int fd, std::vector<Request> requests) {
    PendingBatch batch;
    if (requests.empty()) return batch;
    auto& slots = batch.slots;
    const auto by_tag = [](const PendingBatch::Slot& a, const PendingBatch::Slot& b) {
        return a.tag < b.tag;
    };
    // Tag every sub-request so out-of-order responses can be matched back
    // to their slot; caller-assigned nonzero tags are preserved.
    slots.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (requests[i].tag != 0) slots.push_back({requests[i].tag, i, false, false});
    }
    std::sort(slots.begin(), slots.end(), by_tag);
    const auto duplicate = std::adjacent_find(
        slots.begin(), slots.end(),
        [](const auto& a, const auto& b) { return a.tag == b.tag; });
    if (duplicate != slots.end()) {
        throw std::runtime_error{"duplicate request tag in batch"};
    }
    // Untagged sub-requests take the smallest tags no caller tag uses.
    const auto caller_tagged = static_cast<std::ptrdiff_t>(slots.size());
    std::uint64_t next_tag = 1;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (requests[i].tag != 0) continue;
        while (std::binary_search(slots.begin(), slots.begin() + caller_tagged,
                                  PendingBatch::Slot{next_tag, 0, false, false}, by_tag)) {
            ++next_tag;
        }
        requests[i].tag = next_tag++;
        slots.push_back({requests[i].tag, i, true, false});
    }
    std::inplace_merge(slots.begin(), slots.begin() + caller_tagged, slots.end(), by_tag);
    if (!write_frame(fd, encode_batch(requests))) {
        throw std::runtime_error{"batch write failed"};
    }
    return batch;
}

std::vector<Response> receive_batch(FrameReader& reader, PendingBatch batch) {
    auto& slots = batch.slots;
    std::vector<Response> responses(slots.size());
    for (std::size_t received = 0; received < slots.size(); ++received) {
        const auto frame = reader.next_frame();
        if (!frame) throw std::runtime_error{"connection closed or timed out mid-batch"};
        std::string error;
        auto response = parse_response(*frame, &error);
        if (!response) throw std::runtime_error{"bad response frame: " + error};
        const auto slot = std::lower_bound(
            slots.begin(), slots.end(), response->tag,
            [](const PendingBatch::Slot& s, std::uint64_t tag) { return s.tag < tag; });
        if (slot == slots.end() || slot->tag != response->tag || slot->answered) {
            throw std::runtime_error{"response carries unknown tag " +
                                     std::to_string(response->tag)};
        }
        slot->answered = true;
        // A tag send_batch chose was its bookkeeping, not the caller's.
        if (slot->assigned) response->tag = 0;
        responses[slot->index] = std::move(*response);
    }
    if (reader.buffered() != 0) throw std::runtime_error{"bytes past the last reply"};
    return responses;
}

}  // namespace hsw::service::protocol
