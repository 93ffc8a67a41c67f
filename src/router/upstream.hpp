// Upstream transport seam + persistent connection pooling.
//
// The Router talks to shards through the Transport interface so the
// failover machinery is testable (and benchable) without sockets:
// TcpTransport dials real hsw_surveyd processes with connect/IO timeouts;
// LocalTransport (tests, bench) maps endpoints onto in-process
// SurveyService handlers with controllable fault injection.
//
// ConnectionPool keeps idle connections per shard so the steady state is
// zero dials: a lease checks a connection out, call() or a batch rides
// it, and the destructor returns it -- unless a call threw or a batch's
// replies were not all read, in which case the connection is presumed
// poisoned (a half-read frame is unrecoverable on a pipelined byte
// stream) and dropped on the floor.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "router/fleet_map.hpp"
#include "service/protocol.hpp"
#include "util/sync.hpp"

namespace hsw::router {

/// Transport-level failure: dial refused/timed out, write failed, peer
/// closed mid-response. Distinct from a *protocol* error response, which
/// arrives as a parsed Response with a code. The router retries transport
/// errors on the next replica; whether to retry an error response depends
/// on its code.
class TransportError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

struct TransportOptions {
    /// TCP connect() budget. Zero = OS default (blocking connect).
    std::chrono::milliseconds connect_timeout{1000};
    /// Per-call socket send/receive budget (SO_SNDTIMEO/SO_RCVTIMEO).
    /// Zero = unbounded. A shard that accepted the connection but stopped
    /// answering surfaces as TransportError after this long instead of
    /// hanging the router's connection thread forever.
    std::chrono::milliseconds io_timeout{10000};
};

/// One upstream protocol channel. Not thread-safe; the pool hands each
/// connection to one lease at a time.
class Connection {
public:
    virtual ~Connection() = default;
    /// Round-trips one request. Throws TransportError on any I/O or
    /// framing failure; the connection must then be discarded.
    [[nodiscard]] virtual service::protocol::Response call(
        const service::protocol::Request& request) = 0;
    /// Send half of a pipelined batch: puts every request on the wire and
    /// returns without waiting, so a caller can send to several shards
    /// before it reads any reply. Throws TransportError as call() does.
    virtual void send_batch(std::vector<service::protocol::Request> requests) = 0;
    /// Receive half: waits for the replies to the batch send_batch sent,
    /// in request order. Throws TransportError as call() does.
    [[nodiscard]] virtual std::vector<service::protocol::Response> receive_batch() = 0;
};

class Transport {
public:
    virtual ~Transport() = default;
    /// Dials `endpoint`. Throws TransportError on failure or timeout.
    [[nodiscard]] virtual std::unique_ptr<Connection> connect(
        const ShardEndpoint& endpoint, const TransportOptions& options) = 0;
};

/// Real sockets: non-blocking connect with a deadline, then blocking
/// frame I/O under SO_SNDTIMEO/SO_RCVTIMEO.
class TcpTransport final : public Transport {
public:
    [[nodiscard]] std::unique_ptr<Connection> connect(
        const ShardEndpoint& endpoint, const TransportOptions& options) override;
};

/// Checked-out connections per shard with an idle free-list.
class ConnectionPool {
public:
    ConnectionPool(Transport& transport, ShardEndpoint endpoint,
                   TransportOptions options)
        : transport_{transport}, endpoint_{std::move(endpoint)}, options_{options} {}

    /// RAII checkout. `call()` forwards to the connection and, on
    /// TransportError, marks it unusable (the destructor then closes
    /// instead of recycling it). Between send_batch() and a successful
    /// receive_batch() the connection is unusable too: a lease destroyed
    /// with replies in flight drops it.
    class Lease {
    public:
        Lease(ConnectionPool& pool, std::unique_ptr<Connection> conn)
            : pool_{&pool}, conn_{std::move(conn)} {}
        ~Lease() {
            if (conn_ && reusable_) pool_->give_back(std::move(conn_));
        }
        Lease(Lease&&) = default;
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;
        Lease& operator=(Lease&&) = delete;

        [[nodiscard]] service::protocol::Response call(
            const service::protocol::Request& request) {
            try {
                return conn_->call(request);
            } catch (...) {
                reusable_ = false;
                throw;
            }
        }

        void send_batch(std::vector<service::protocol::Request> requests) {
            reusable_ = false;
            conn_->send_batch(std::move(requests));
        }

        [[nodiscard]] std::vector<service::protocol::Response> receive_batch() {
            std::vector<service::protocol::Response> responses = conn_->receive_batch();
            reusable_ = true;
            return responses;
        }

    private:
        ConnectionPool* pool_;
        std::unique_ptr<Connection> conn_;
        bool reusable_ = true;
    };

    /// Reuses an idle connection or dials a fresh one (TransportError on
    /// dial failure).
    [[nodiscard]] Lease acquire() EXCLUDES(lock_);

    /// Drops every idle connection (a health prober calls this when the
    /// shard gets ejected, so readmission starts from fresh dials).
    void clear_idle() EXCLUDES(lock_);

    [[nodiscard]] const ShardEndpoint& endpoint() const { return endpoint_; }
    [[nodiscard]] std::size_t idle_count() const EXCLUDES(lock_);

private:
    friend class Lease;
    void give_back(std::unique_ptr<Connection> conn) EXCLUDES(lock_);

    Transport& transport_;
    ShardEndpoint endpoint_;
    TransportOptions options_;
    /// Idle connections kept; a returned connection beyond them closes.
    static constexpr std::size_t kMaxIdle = 8;
    mutable util::Mutex lock_;
    std::vector<std::unique_ptr<Connection>> idle_ GUARDED_BY(lock_);
};

}  // namespace hsw::router
