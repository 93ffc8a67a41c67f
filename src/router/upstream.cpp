#include "router/upstream.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>
#include <utility>

namespace hsw::router {

namespace {

using service::protocol::Request;
using service::protocol::Response;

void close_quietly(int fd) {
    if (fd >= 0) ::close(fd);
}

timeval to_timeval(std::chrono::milliseconds ms) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms.count() % 1000) * 1000);
    return tv;
}

[[noreturn]] void throw_errno(const std::string& what) {
    throw TransportError{what + ": " + std::system_category().message(errno)};
}

/// connect() with a deadline: non-blocking connect, poll for writability,
/// then read back SO_ERROR. Returns the connected fd or throws.
int dial(const ShardEndpoint& endpoint, const TransportOptions& options) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket()");

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(endpoint.port);
    if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
        close_quietly(fd);
        throw TransportError{"bad IPv4 address: " + endpoint.host};
    }

    const bool bounded = options.connect_timeout.count() > 0;
    if (bounded) {
        const int flags = ::fcntl(fd, F_GETFL, 0);
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
    int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    if (rc != 0 && errno == EINPROGRESS && bounded) {
        pollfd pfd{fd, POLLOUT, 0};
        const int ready =
            ::poll(&pfd, 1, static_cast<int>(options.connect_timeout.count()));
        if (ready <= 0) {
            close_quietly(fd);
            throw TransportError{"connect(" + endpoint.address() +
                                 ") timed out after " +
                                 std::to_string(options.connect_timeout.count()) +
                                 " ms"};
        }
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
            close_quietly(fd);
            errno = err;
            throw_errno("connect(" + endpoint.address() + ")");
        }
        rc = 0;
    }
    if (rc != 0) {
        const int saved = errno;
        close_quietly(fd);
        errno = saved;
        throw_errno("connect(" + endpoint.address() + ")");
    }
    if (bounded) {
        const int flags = ::fcntl(fd, F_GETFL, 0);
        ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
    }

    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (options.io_timeout.count() > 0) {
        const timeval tv = to_timeval(options.io_timeout);
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    }
    return fd;
}

/// Every read of the socket goes through `reader_`, whose buffer the pool
/// bounds along with the connections themselves.
class TcpConnection final : public Connection {
public:
    explicit TcpConnection(int fd) : fd_{fd}, reader_{fd} {}
    ~TcpConnection() override { close_quietly(fd_); }
    TcpConnection(const TcpConnection&) = delete;
    TcpConnection& operator=(const TcpConnection&) = delete;

    // The protocol helpers fold EOF, EAGAIN (SO_RCVTIMEO expiry) and
    // truncation together; all of them poison the stream.
    Response call(const Request& request) override {
        try {
            return service::protocol::round_trip(fd_, reader_, request);
        } catch (const std::runtime_error& e) {
            throw TransportError{std::string{"upstream: "} + e.what()};
        }
    }

    void send_batch(std::vector<Request> requests) override {
        try {
            pending_ = service::protocol::send_batch(fd_, std::move(requests));
        } catch (const std::runtime_error& e) {
            throw TransportError{std::string{"upstream batch: "} + e.what()};
        }
    }

    std::vector<Response> receive_batch() override {
        try {
            return service::protocol::receive_batch(reader_, std::exchange(pending_, {}));
        } catch (const std::runtime_error& e) {
            throw TransportError{std::string{"upstream batch: "} + e.what()};
        }
    }

private:
    int fd_;
    service::protocol::FrameReader reader_;
    service::protocol::PendingBatch pending_;
};

}  // namespace

std::unique_ptr<Connection> TcpTransport::connect(const ShardEndpoint& endpoint,
                                                  const TransportOptions& options) {
    return std::make_unique<TcpConnection>(dial(endpoint, options));
}

ConnectionPool::Lease ConnectionPool::acquire() {
    {
        util::LockGuard lock{lock_};
        if (!idle_.empty()) {
            auto conn = std::move(idle_.back());
            idle_.pop_back();
            return Lease{*this, std::move(conn)};
        }
    }
    return Lease{*this, transport_.connect(endpoint_, options_)};
}

void ConnectionPool::clear_idle() {
    std::vector<std::unique_ptr<Connection>> doomed;
    {
        util::LockGuard lock{lock_};
        doomed.swap(idle_);
    }
    // close() outside the lock
}

std::size_t ConnectionPool::idle_count() const {
    util::LockGuard lock{lock_};
    return idle_.size();
}

void ConnectionPool::give_back(std::unique_ptr<Connection> conn) {
    util::LockGuard lock{lock_};
    if (idle_.size() < kMaxIdle) idle_.push_back(std::move(conn));
    // else: drop, closing in conn's destructor after we release the lock
    // would be nicer, but an over-budget return is rare and close() on a
    // healthy socket does not block.
}

}  // namespace hsw::router
