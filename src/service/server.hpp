// Loopback TCP front-end for SurveyService.
//
// SurveyServer composes the generic FrameServer accept loop (see
// frame_server.hpp) with a SurveyService: connections speak the
// length-prefixed protocol and may pipeline any number of requests. The
// connection threads only parse, dispatch to the service (which enforces
// admission control on its own bounded pool), and write responses -- so a
// slow compute never blocks accept(), and an overloaded service answers
// with structured rejections instead of stalling the socket.
//
// Shutdown paths converge on stop(): the `shutdown` verb, a signal
// handler, or the owner calling it directly. stop() closes the listening
// socket (unblocking accept), lets in-flight requests finish, drains the
// service, and joins every thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/frame_server.hpp"
#include "service/service.hpp"

namespace hsw::service {

struct ServerConfig {
    /// Loopback only by default; this is a measurement service, not an
    /// internet-facing one.
    std::string bind_address = "127.0.0.1";
    /// 0 = kernel-assigned ephemeral port (read it back via port()).
    std::uint16_t port = 0;
    /// Concurrent connections; excess connects receive one Overloaded
    /// response and are closed.
    unsigned max_connections = 64;
    /// Reactor event-loop threads (see FrameServerConfig).
    unsigned reactor_threads = 2;
    ServiceConfig service;
};

class SurveyServer {
public:
    /// Binds and listens; throws std::runtime_error on socket failure.
    explicit SurveyServer(ServerConfig cfg = {});

    SurveyServer(const SurveyServer&) = delete;
    SurveyServer& operator=(const SurveyServer&) = delete;

    /// The bound port (useful with cfg.port == 0).
    [[nodiscard]] std::uint16_t port() const { return frontend_->port(); }

    /// Runs the accept loop on a background thread and returns.
    void start() { frontend_->start(); }

    /// Blocks until the server has stopped (shutdown verb or stop()).
    void wait() { frontend_->wait(); }

    /// Idempotent: stop accepting, finish in-flight connections, drain the
    /// service, join all threads.
    void stop() { frontend_->stop(); }

    [[nodiscard]] bool stopped() const { return frontend_->stopped(); }

    [[nodiscard]] SurveyService& service() { return *service_; }

private:
    std::unique_ptr<SurveyService> service_;
    std::unique_ptr<FrameServer> frontend_;  // after service_: stops first
};

/// Copies the calling thread's trace context (obs/ctx.hpp), if any, into
/// `request`'s trace header, so the next hop's spans parent to the
/// caller's current span.
void stamp_trace(protocol::Request& request);

/// Blocking protocol client used by hsw_query and the tests. One
/// connection, synchronous call(); not thread-safe -- use one client per
/// thread.
///
/// Distributed tracing: when the calling thread carries a TraceContext
/// (obs/ctx.hpp) each call opens a "client.call" span and stamps the
/// request's trace header from it, so the server's spans parent to this
/// client's.
class ServiceClient {
public:
    /// Throws std::runtime_error when the connection fails.
    ServiceClient(const std::string& host, std::uint16_t port);
    ~ServiceClient();

    ServiceClient(const ServiceClient&) = delete;
    ServiceClient& operator=(const ServiceClient&) = delete;

    /// Sends the request and waits for the response; throws
    /// std::runtime_error on transport or framing errors.
    [[nodiscard]] protocol::Response call(const protocol::Request& request);

    /// Sends many requests as one `batch` frame and returns the responses
    /// in request order (the client tags each sub-request and reorders
    /// tagged responses as they arrive). Throws std::runtime_error on
    /// transport or framing errors.
    [[nodiscard]] std::vector<protocol::Response> call_pipelined(
        const std::vector<protocol::Request>& requests);

private:
    int fd_ = -1;
    protocol::FrameReader reader_;  // every read of fd_ goes through it
};

}  // namespace hsw::service
