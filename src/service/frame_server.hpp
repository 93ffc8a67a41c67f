// Generic loopback TCP front-end for hsw-survey-rpc handlers.
//
// FrameServer owns the socket plumbing; what it serves is a callback.
// SurveyServer (a shard) and RouterServer (the fleet front door) are both
// thin compositions over it: parse a frame, hand the Request to a
// handler, write the Response back.
//
// Since PR 9 the serving model is an epoll reactor, not a thread per
// connection:
//
//   * A small fixed pool of *reactor threads*, each with its own epoll
//     set, owns the connections (round-robin assignment at accept). All
//     per-connection state -- read buffer, frame parser, response slots,
//     output queue -- is touched only by the owning reactor thread, so
//     the event loop needs no locks at all on the hot path.
//   * Nonblocking sockets end to end: reads drain until EAGAIN, writes go
//     out as coalesced sendmsg(iovec) bursts, and a connection that can't
//     take more bytes parks on EPOLLOUT instead of blocking a thread.
//   * Requests the *fast handler* can answer (ping, health, response-
//     cache hits) complete inline on the reactor thread: a hot query is
//     served with zero thread handoffs. Everything else is dispatched to
//     the *handler pool*, a bounded set of threads that may block (the
//     service's admission control still bounds the real compute).
//   * Pipelining: a connection may send any number of frames without
//     waiting, including `batch` frames carrying many tagged requests.
//     Each request gets a response slot; completed *tagged* slots flush
//     out of order, untagged slots flush strictly in request order.
//   * Backpressure: a connection with too many pending slots or too many
//     unflushed output bytes has EPOLLIN interest dropped until the
//     client drains responses -- a slow reader throttles itself, never
//     the reactor.
//
// Shutdown paths converge on stop(): the `shutdown` verb, a signal
// handler, or the owner calling it directly. stop() closes the listener
// (unblocking the accept thread), stops the handler pool (running calls
// finish, queued ones are abandoned like the old model's killed reads),
// then signals the reactors, which flush what is ready and close every
// connection. The `shutdown` verb is special-cased: its response is
// flushed first, then a dedicated stopper thread drives the teardown
// (a reactor cannot join itself); the destructor reaps the stopper.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>  // std::once_flag
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "util/sync.hpp"

namespace hsw::service {

struct FrameServerConfig {
    /// Loopback only by default; this is a measurement service, not an
    /// internet-facing one.
    std::string bind_address = "127.0.0.1";
    /// 0 = kernel-assigned ephemeral port (read it back via port()).
    std::uint16_t port = 0;
    /// Concurrent connections; excess connects receive one Overloaded
    /// response and are closed. The handler pool that runs the (possibly
    /// blocking) Handler has clamp(max_connections, 4, 64) threads.
    unsigned max_connections = 64;
    /// Event-loop threads; clamped to at least 1. Connections are
    /// assigned round-robin at accept and never migrate.
    unsigned reactor_threads = 2;
    /// Per-connection backpressure: stop reading when 2048 response slots
    /// are pending or this many output bytes are unflushed.
    std::size_t max_output_bytes = 8u << 20;
    /// Prefix for the front-end's obs metrics: "<prefix>_connections",
    /// "<prefix>_connections_refused", "<prefix>_frames",
    /// "<prefix>_frames_malformed", "<prefix>_open_connections",
    /// "<prefix>_fast_responses". Distinct prefixes keep a router and a
    /// shard distinguishable in one scrape.
    std::string metric_prefix = "hsw_server";
};

class FrameServer {
public:
    /// Answers one parsed request; runs on a handler-pool thread and may
    /// block. The handler owns admission control for its own work --
    /// FrameServer only caps connections and per-connection pipelining.
    using Handler = std::function<protocol::Response(const protocol::Request&)>;
    /// Optional non-blocking attempt, run inline on the reactor thread
    /// BEFORE the pool dispatch. Returning a Response answers the request
    /// with zero handoffs; nullopt falls through to the Handler. Must
    /// never block (see the reactor-blocking lint rule).
    using FastHandler =
        std::function<std::optional<protocol::Response>(const protocol::Request&)>;
    /// Optional whole-batch dispatch: one pool call answers all
    /// sub-requests of a batch frame (the router groups them by
    /// shard and pipelines per upstream). Must return exactly one
    /// response per request, in order. Without it, batches expand into
    /// per-request dispatches across the handler pool.
    using BatchHandler = std::function<std::vector<protocol::Response>(
        const std::vector<protocol::Request>&)>;

    /// Binds and listens; throws std::runtime_error on socket failure.
    /// `on_drain` (may be null) runs inside stop() after the handler pool
    /// has been joined -- e.g. SurveyService::drain().
    FrameServer(FrameServerConfig cfg, Handler handler,
                std::function<void()> on_drain = {});
    ~FrameServer();

    FrameServer(const FrameServer&) = delete;
    FrameServer& operator=(const FrameServer&) = delete;

    /// Install before start(); not thread-safe afterwards.
    void set_fast_handler(FastHandler fast) { fast_handler_ = std::move(fast); }
    void set_batch_handler(BatchHandler batch) { batch_handler_ = std::move(batch); }

    /// The bound port (useful with cfg.port == 0).
    [[nodiscard]] std::uint16_t port() const { return port_; }

    /// Spawns the reactors, the handler pool, and the accept thread.
    void start();

    /// Blocks until the server has stopped (shutdown verb or stop()).
    void wait() EXCLUDES(stopped_lock_);

    /// Idempotent: stop accepting, finish running handler calls, run the
    /// drain hook, flush and close every connection, join all threads.
    void stop();

    [[nodiscard]] bool stopped() const;

private:
    struct Conn;
    struct Slot;
    struct Reactor;
    struct WakeSlot;

    void accept_loop();
    void reactor_loop(Reactor& reactor);
    void handler_loop(WakeSlot& wake);

    // Reactor-side connection handling; all run on the owning reactor
    // thread only.
    void add_connection(Reactor& reactor, int fd);
    void close_connection(Reactor& reactor, Conn& conn);
    void on_readable(Reactor& reactor, Conn& conn);
    void on_writable(Reactor& reactor, Conn& conn);
    void parse_frames(Reactor& reactor, Conn& conn);
    void dispatch_frame(Reactor& reactor, Conn& conn, std::string_view frame);
    void dispatch_single(Reactor& reactor, Conn& conn, protocol::Request request);
    void enqueue_malformed(Conn& conn, std::string reason);
    void flush_ready(Reactor& reactor, Conn& conn);
    bool flush_output(Reactor& reactor, Conn& conn);
    void update_interest(Reactor& reactor, Conn& conn);
    void request_stop_from_reactor();

    bool submit(std::function<void()> task);
    void post_completion(Reactor& reactor, const std::weak_ptr<Conn>& conn);

    FrameServerConfig cfg_;
    Handler handler_;
    FastHandler fast_handler_;
    BatchHandler batch_handler_;
    std::function<void()> on_drain_;
    std::atomic<int> listen_fd_{-1};
    std::uint16_t port_ = 0;

    // Front-end metrics, resolved once from cfg_.metric_prefix.
    struct Metrics;
    std::unique_ptr<Metrics> metrics_;

    std::thread acceptor_;
    std::vector<std::unique_ptr<Reactor>> reactors_;
    std::atomic<unsigned> next_reactor_{0};

    // Handler pool: runs blocking Handler/BatchHandler calls. An idle
    // thread sleeps on its own wake slot; submit() hands each task to the
    // most recently idle thread (LIFO), whose stack and caches are still
    // warm, and queues it only while every thread is busy.
    util::Mutex pool_lock_;
    std::deque<std::function<void()>> pool_queue_ GUARDED_BY(pool_lock_);
    std::vector<WakeSlot*> pool_idle_ GUARDED_BY(pool_lock_);  // warmest last
    bool pool_stop_ GUARDED_BY(pool_lock_) = false;
    std::vector<std::unique_ptr<WakeSlot>> pool_wakes_;  // one per thread
    std::vector<std::thread> pool_threads_;

    // Spawned by the `shutdown` verb so a reactor thread is never asked
    // to join itself; reaped by the destructor.
    util::Mutex stopper_lock_;
    std::thread stopper_ GUARDED_BY(stopper_lock_);

    std::atomic<unsigned> open_connections_{0};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> stopped_{false};
    std::once_flag stop_once_;
    util::Mutex stopped_lock_;
    util::CondVar stopped_cv_;
};

}  // namespace hsw::service
