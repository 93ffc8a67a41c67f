#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "obs/trace.hpp"

namespace hsw::service {

namespace {

void close_quietly(int fd) {
    if (fd >= 0) ::close(fd);
}

sockaddr_in make_address(const std::string& host, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        throw std::runtime_error{"bad IPv4 address: " + host};
    }
    return addr;
}

/// A TCP_NODELAY connection to host:port; throws std::runtime_error.
int dial(const std::string& host, std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error{"socket() failed"};
    sockaddr_in addr = make_address(host, port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        const std::string reason = std::system_category().message(errno);
        close_quietly(fd);
        throw std::runtime_error{"connect(" + host + ":" + std::to_string(port) +
                                 ") failed: " + reason};
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

}  // namespace

void stamp_trace(protocol::Request& request) {
    const obs::trace::TraceContext ctx = obs::trace::current_context();
    if (!ctx.valid()) return;
    request.trace_id = ctx.trace_id;
    request.trace_parent = ctx.span_id;
    request.trace_flags = ctx.flags;
}

SurveyServer::SurveyServer(ServerConfig cfg)
    : service_{std::make_unique<SurveyService>(cfg.service)} {
    FrameServerConfig front;
    front.bind_address = std::move(cfg.bind_address);
    front.port = cfg.port;
    front.max_connections = cfg.max_connections;
    front.reactor_threads = cfg.reactor_threads;
    frontend_ = std::make_unique<FrameServer>(
        std::move(front),
        [svc = service_.get()](const protocol::Request& request) {
            return svc->handle(request);
        },
        [svc = service_.get()] { svc->drain(); });
    // Hot queries, pings, and health checks complete inline on the
    // reactor thread -- zero handoffs between the socket and the caches.
    frontend_->set_fast_handler(
        [svc = service_.get()](const protocol::Request& request) {
            return svc->try_handle_fast(request);
        });
}

ServiceClient::ServiceClient(const std::string& host, std::uint16_t port)
    : fd_{dial(host, port)}, reader_{fd_} {}

ServiceClient::~ServiceClient() { close_quietly(fd_); }

protocol::Response ServiceClient::call(const protocol::Request& request) {
    obs::trace::Span span{"client.call", "client"};
    if (span.armed()) span.set_label(protocol::name(request.verb));
    protocol::Request traced = request;
    stamp_trace(traced);
    return protocol::round_trip(fd_, reader_, traced);
}

std::vector<protocol::Response> ServiceClient::call_pipelined(
    const std::vector<protocol::Request>& requests) {
    obs::trace::Span span{"client.call", "client"};
    if (span.armed()) span.set_label("batch");
    std::vector<protocol::Request> traced = requests;
    for (protocol::Request& req : traced) stamp_trace(req);
    return protocol::receive_batch(reader_, protocol::send_batch(fd_, std::move(traced)));
}

}  // namespace hsw::service
