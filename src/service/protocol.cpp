#include "service/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>
#include <system_error>
#include <unordered_map>

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

bool write_all(int fd, const char* buf, std::size_t len) {
    while (len > 0) {
        // MSG_NOSIGNAL: writing into a socket whose peer died must surface
        // as EPIPE (-> false -> the caller's failover path), not SIGPIPE
        // killing the process. The router hits this on every shard death.
        // Frames also flow over pipes (tests, future local IPC), where
        // send() is ENOTSOCK -- fall back to plain write() there.
        ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK) n = ::write(fd, buf, len);
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
        const std::uint32_t len = static_cast<std::uint32_t>(body.size());
        const char prefix[4] = {
            static_cast<char>(len >> 24), static_cast<char>(len >> 16),
            static_cast<char>(len >> 8), static_cast<char>(len)};
        out.append(prefix, sizeof prefix);
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
        const auto* p = reinterpret_cast<const unsigned char*>(text.data());
        const std::uint32_t len = (static_cast<std::uint32_t>(p[0]) << 24) |
                                  (static_cast<std::uint32_t>(p[1]) << 16) |
                                  (static_cast<std::uint32_t>(p[2]) << 8) |
                                  static_cast<std::uint32_t>(p[3]);
        text.remove_prefix(4);
        if (text.size() < len) {
            set_error(error, "truncated batch sub-request");
            return std::nullopt;
        }
        std::string sub_error;
        auto req = parse_request(text.substr(0, len), &sub_error);
        if (!req) {
            set_error(error,
                      "batch sub-request " + std::to_string(i) + ": " + sub_error);
            return std::nullopt;
        }
        out.push_back(std::move(*req));
        text.remove_prefix(len);
    }
    if (!text.empty()) {
        set_error(error, "trailing bytes after batch");
        return std::nullopt;
    }
    return out;
}

bool write_frame(int fd, std::string_view payload) {
    if (payload.size() > kMaxFrameBytes) return false;
    const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    const char prefix[4] = {static_cast<char>(len >> 24), static_cast<char>(len >> 16),
                            static_cast<char>(len >> 8), static_cast<char>(len)};
    return write_all(fd, prefix, sizeof prefix) &&
           write_all(fd, payload.data(), payload.size());
}

std::optional<std::string> read_frame(int fd) {
    unsigned char prefix[4];
    if (!read_exact(fd, reinterpret_cast<char*>(prefix), sizeof prefix)) {
        return std::nullopt;
    }
    const std::uint32_t len = (static_cast<std::uint32_t>(prefix[0]) << 24) |
                              (static_cast<std::uint32_t>(prefix[1]) << 16) |
                              (static_cast<std::uint32_t>(prefix[2]) << 8) |
                              static_cast<std::uint32_t>(prefix[3]);
    if (len > kMaxFrameBytes) return std::nullopt;
    std::string payload(len, '\0');
    if (!read_exact(fd, payload.data(), payload.size())) return std::nullopt;
    return payload;
}

std::vector<Response> call_batch_over_fd(int fd, const std::vector<Request>& requests) {
    std::vector<Response> responses;
    if (requests.empty()) return responses;

    // Tag every sub-request so out-of-order responses can be matched back
    // to their slot; caller-assigned nonzero tags are preserved.
    std::vector<Request> tagged{requests};
    std::unordered_map<std::uint64_t, std::size_t> slot_by_tag;
    std::uint64_t next_tag = 1;
    for (std::size_t i = 0; i < tagged.size(); ++i) {
        if (tagged[i].tag == 0) {
            while (slot_by_tag.count(next_tag) != 0) ++next_tag;
            tagged[i].tag = next_tag;
        }
        if (!slot_by_tag.emplace(tagged[i].tag, i).second) {
            throw std::runtime_error{"duplicate request tag in batch"};
        }
    }
    if (!write_frame(fd, encode_batch(tagged))) {
        throw std::runtime_error{"batch write failed"};
    }

    responses.resize(tagged.size());
    for (std::size_t received = 0; received < tagged.size(); ++received) {
        const auto frame = read_frame(fd);
        if (!frame) throw std::runtime_error{"connection closed mid-batch"};
        std::string error;
        auto response = parse_response(*frame, &error);
        if (!response) throw std::runtime_error{"bad response frame: " + error};
        const auto slot = slot_by_tag.find(response->tag);
        if (slot == slot_by_tag.end()) {
            throw std::runtime_error{"response carries unknown tag " +
                                     std::to_string(response->tag)};
        }
        responses[slot->second] = std::move(*response);
        slot_by_tag.erase(slot);
    }
    // Sub-requests the caller left untagged get their responses untagged
    // again -- the wire tag was this helper's bookkeeping, not the
    // caller's.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (requests[i].tag == 0) responses[i].tag = 0;
    }
    return responses;
}

}  // namespace hsw::service::protocol
