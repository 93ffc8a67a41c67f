#include "service/frame_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <system_error>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
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

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// One reactor read pass drains at most this much before yielding to the
/// event loop, so a single firehose connection cannot starve its peers.
constexpr std::size_t kMaxReadPerPass = 256u << 10;

/// iovec fan-in per sendmsg: enough to coalesce many small responses into
/// one syscall without building giant arrays for pathological pipelines.
constexpr int kMaxIov = 32;

/// Response slots pending on one connection before its reads pause; they
/// resume below half of it.
constexpr std::size_t kMaxPendingRequests = 2048;

}  // namespace

struct FrameServer::Metrics {
    obs::Counter& connections;
    obs::Counter& refused;
    obs::Counter& frames;
    obs::Counter& malformed;
    obs::Counter& fast;
    obs::Gauge& open;

    explicit Metrics(const std::string& prefix)
        : connections{obs::counter(prefix + "_connections",
                                   "TCP connections accepted")},
          refused{obs::counter(prefix + "_connections_refused",
                               "Connections refused at the admission cap")},
          frames{obs::counter(prefix + "_frames",
                              "Request frames read off the wire")},
          malformed{obs::counter(prefix + "_frames_malformed",
                                 "Frames that failed request parsing")},
          fast{obs::counter(prefix + "_fast_responses",
                            "Requests answered inline on a reactor thread")},
          open{obs::gauge(prefix + "_open_connections",
                          "Connections currently being served")} {}
};

/// A pending response in a connection's pipeline. Filled by a handler
/// thread (or inline by the fast path), consumed by the owning reactor.
/// `done` is the only cross-thread handoff: the writer stores it with
/// release order after filling `response`, the reactor loads with acquire
/// before reading it.
struct FrameServer::Slot {
    std::atomic<bool> done{false};
    protocol::Response response;
    bool tagged = false;    // tagged slots may flush out of order
    bool shutdown = false;  // flushing this slot triggers server stop
};

struct FrameServer::Conn {
    int fd = -1;
    unsigned reactor_index = 0;
    /// Registered epoll interest (EPOLLIN/EPOLLOUT bits).
    std::uint32_t events = 0;
    bool reads_paused = false;  // backpressure dropped EPOLLIN

    // Read side: accumulated bytes with a consume cursor (compacted
    // lazily so pipelined frames don't pay O(n) erase each).
    std::string in;
    std::size_t in_off = 0;

    // Response pipeline, in request order.
    std::deque<std::shared_ptr<Slot>> slots;

    // Write side: encoded frames pending flush. `head` carries the frame
    // length prefix + response header; the payload is either moved out of
    // its response (`body`) or shares the cached allocation
    // (`shared_body`) -- a response's bytes are never copied into the
    // connection.
    struct OutChunk {
        std::string head;
        std::string body;
        std::shared_ptr<const std::string> shared_body;
        std::size_t off = 0;  // bytes of head+body already written
        [[nodiscard]] std::string_view body_view() const {
            return shared_body ? std::string_view{*shared_body} : std::string_view{body};
        }
        [[nodiscard]] std::size_t size() const { return head.size() + body_view().size(); }
    };
    std::deque<OutChunk> out;
    std::size_t out_bytes = 0;  // unwritten bytes across `out`

    bool shutdown_pending = false;  // flushed a shutdown response
};

/// One handler thread's wake slot: the condition variable it sleeps on
/// while idle, and the task submit() leaves for it. `task` is touched only
/// under pool_lock_.
struct FrameServer::WakeSlot {
    util::CondVar cv;
    std::function<void()> task;
};

/// One event-loop thread: an epoll set, an eventfd wakeup, and a locked
/// inbox for the two cross-thread messages (new connection, slot
/// completion). Everything else is owned by the reactor thread alone.
struct FrameServer::Reactor {
    unsigned index = 0;
    int epoll_fd = -1;
    int wake_fd = -1;
    std::thread thread;
    std::atomic<bool> stop{false};

    struct InboxMsg {
        int new_fd = -1;                // >= 0: adopt this connection
        std::weak_ptr<Conn> completed;  // else: flush this connection
    };
    util::Mutex inbox_lock;
    std::vector<InboxMsg> inbox GUARDED_BY(inbox_lock);

    // Reactor-thread-only connection table.
    std::unordered_map<int, std::shared_ptr<Conn>> conns;

    void wake() const {
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof one);
    }
};

FrameServer::FrameServer(FrameServerConfig cfg, Handler handler,
                         std::function<void()> on_drain)
    : cfg_{std::move(cfg)},
      handler_{std::move(handler)},
      on_drain_{std::move(on_drain)},
      metrics_{std::make_unique<Metrics>(cfg_.metric_prefix)} {
    cfg_.reactor_threads = std::max(1u, cfg_.reactor_threads);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error{"socket() failed"};
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr = make_address(cfg_.bind_address, cfg_.port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        // system_category().message(), not strerror(): the latter returns a
        // static buffer and is not thread-safe.
        const std::string reason = std::system_category().message(errno);
        close_quietly(fd);
        throw std::runtime_error{"bind(" + cfg_.bind_address + ":" +
                                 std::to_string(cfg_.port) + ") failed: " + reason};
    }
    if (::listen(fd, 64) != 0) {
        close_quietly(fd);
        throw std::runtime_error{"listen() failed"};
    }

    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        close_quietly(fd);
        throw std::runtime_error{"getsockname() failed"};
    }
    port_ = ntohs(bound.sin_port);
    listen_fd_.store(fd, std::memory_order_release);

    reactors_.reserve(cfg_.reactor_threads);
    for (unsigned i = 0; i < cfg_.reactor_threads; ++i) {
        auto reactor = std::make_unique<Reactor>();
        reactor->index = i;
        reactor->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
        reactor->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
        if (reactor->epoll_fd < 0 || reactor->wake_fd < 0) {
            close_quietly(reactor->epoll_fd);
            close_quietly(reactor->wake_fd);
            close_quietly(listen_fd_.exchange(-1));
            throw std::runtime_error{"epoll/eventfd setup failed"};
        }
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = reactor->wake_fd;
        ::epoll_ctl(reactor->epoll_fd, EPOLL_CTL_ADD, reactor->wake_fd, &ev);
        reactors_.push_back(std::move(reactor));
    }
}

FrameServer::~FrameServer() {
    stop();
    std::thread stopper;
    {
        util::LockGuard lock{stopper_lock_};
        stopper.swap(stopper_);
    }
    if (stopper.joinable()) stopper.join();
    for (auto& reactor : reactors_) {
        close_quietly(reactor->epoll_fd);
        close_quietly(reactor->wake_fd);
    }
}

void FrameServer::start() {
    for (auto& reactor : reactors_) {
        reactor->thread = std::thread{[this, r = reactor.get()] { reactor_loop(*r); }};
    }
    const unsigned handler_threads = std::clamp(cfg_.max_connections, 4u, 64u);
    // Everything an idle thread touches exists before the first one runs:
    // a thread that allocates gets a malloc arena of its own, so idle
    // registration that grew the stack would cost memory per thread.
    {
        util::LockGuard lock{pool_lock_};
        pool_idle_.reserve(handler_threads);
    }
    pool_wakes_.reserve(handler_threads);
    for (unsigned i = 0; i < handler_threads; ++i) {
        pool_wakes_.push_back(std::make_unique<WakeSlot>());
    }
    pool_threads_.reserve(handler_threads);
    for (const auto& wake : pool_wakes_) {
        pool_threads_.emplace_back([this, w = wake.get()] { handler_loop(*w); });
    }
    acceptor_ = std::thread{[this] { accept_loop(); }};
}

void FrameServer::wait() {
    util::LockGuard lock{stopped_lock_};
    while (!stopped_.load(std::memory_order_acquire)) stopped_cv_.wait(lock);
}

bool FrameServer::stopped() const { return stopped_.load(std::memory_order_acquire); }

void FrameServer::stop() {
    std::call_once(stop_once_, [this] {
        stopping_.store(true, std::memory_order_release);
        // Closing the listener unblocks accept(); shutdown() first so a
        // concurrent accept returns instead of racing the close.
        const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
        if (fd >= 0) {
            ::shutdown(fd, SHUT_RDWR);
            ::close(fd);
        }
        if (acceptor_.joinable() &&
            acceptor_.get_id() != std::this_thread::get_id()) {
            acceptor_.join();
        }
        // Handler pool: running calls finish (their completions still
        // reach the reactors, which are alive and flushing), queued calls
        // are abandoned -- the same fate the thread-per-connection model
        // gave requests whose sockets stop() shut down mid-read.
        {
            util::LockGuard lock{pool_lock_};
            pool_stop_ = true;
        }
        for (const auto& wake : pool_wakes_) wake->cv.notify_one();
        for (auto& t : pool_threads_) {
            if (t.get_id() != std::this_thread::get_id()) t.join();
        }
        // Reactors last: each drains its inbox once more, flushes every
        // response that is ready, closes its connections, and exits.
        for (auto& reactor : reactors_) {
            reactor->stop.store(true, std::memory_order_release);
            reactor->wake();
        }
        for (auto& reactor : reactors_) {
            if (reactor->thread.joinable() &&
                reactor->thread.get_id() != std::this_thread::get_id()) {
                reactor->thread.join();
            }
        }
        if (on_drain_) on_drain_();
        {
            util::LockGuard lock{stopped_lock_};
            stopped_.store(true, std::memory_order_release);
        }
        stopped_cv_.notify_all();
    });
}

void FrameServer::request_stop_from_reactor() {
    // A reactor thread cannot run stop() itself (stop joins the
    // reactors); a dedicated stopper drives the teardown and the
    // destructor reaps it.
    util::LockGuard lock{stopper_lock_};
    if (!stopper_.joinable()) {
        stopper_ = std::thread{[this] { stop(); }};
    }
}

bool FrameServer::submit(std::function<void()> task) {
    WakeSlot* wake = nullptr;
    {
        util::LockGuard lock{pool_lock_};
        if (pool_stop_) return false;
        if (pool_idle_.empty()) {
            pool_queue_.push_back(std::move(task));  // every thread is busy
            return true;
        }
        wake = pool_idle_.back();
        pool_idle_.pop_back();
        wake->task = std::move(task);
    }
    wake->cv.notify_one();
    return true;
}

void FrameServer::handler_loop(WakeSlot& wake) {
    for (;;) {
        std::function<void()> task;
        {
            util::LockGuard lock{pool_lock_};
            if (pool_queue_.empty() && !pool_stop_) {
                pool_idle_.push_back(&wake);  // within the reserved capacity
                while (!pool_stop_ && !wake.task) wake.cv.wait(lock);
            }
            if (pool_stop_) return;  // abandon queued work; see stop()
            if (wake.task) {
                task = std::move(wake.task);
                wake.task = nullptr;
            } else {
                task = std::move(pool_queue_.front());
                pool_queue_.pop_front();
            }
        }
        task();
    }
}

void FrameServer::post_completion(Reactor& reactor,
                                  const std::weak_ptr<Conn>& conn) {
    {
        util::LockGuard lock{reactor.inbox_lock};
        reactor.inbox.push_back(Reactor::InboxMsg{-1, conn});
    }
    reactor.wake();
}

void FrameServer::accept_loop() {
    for (;;) {
        const int listen_fd = listen_fd_.load(std::memory_order_acquire);
        if (listen_fd < 0) break;
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            break;  // listener closed (stop()) or fatal error
        }
        if (stopping_.load(std::memory_order_acquire)) {
            close_quietly(fd);
            break;
        }
        if (open_connections_.load(std::memory_order_acquire) >=
            cfg_.max_connections) {
            // Structured refusal at the connection level, mirroring the
            // service's admission control. The socket is still blocking
            // here, so the tiny response frame writes synchronously.
            protocol::Response overload;
            overload.code = protocol::ErrorCode::Overloaded;
            overload.payload = "too many connections (max " +
                               std::to_string(cfg_.max_connections) + ")";
            protocol::write_frame(fd, overload.encode());
            close_quietly(fd);
            metrics_->refused.inc();
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        set_nonblocking(fd);
        open_connections_.fetch_add(1, std::memory_order_acq_rel);
        metrics_->connections.inc();
        metrics_->open.add(1);
        Reactor& reactor =
            *reactors_[next_reactor_.fetch_add(1, std::memory_order_relaxed) %
                       reactors_.size()];
        {
            util::LockGuard lock{reactor.inbox_lock};
            reactor.inbox.push_back(Reactor::InboxMsg{fd, {}});
        }
        reactor.wake();
    }
}

// hsw:reactor-thread -- the event loop and everything it calls run with
// nonblocking fds only; a blocking socket call here stalls every
// connection this reactor owns (see hsw_lint's reactor-blocking rule).
void FrameServer::reactor_loop(Reactor& reactor) {
    epoll_event events[64];
    for (;;) {
        const int n = ::epoll_wait(reactor.epoll_fd, events,
                                   static_cast<int>(std::size(events)), -1);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            if (fd == reactor.wake_fd) {
                std::uint64_t drain = 0;
                while (::read(reactor.wake_fd, &drain, sizeof drain) > 0) {
                }
                continue;
            }
            const auto it = reactor.conns.find(fd);
            if (it == reactor.conns.end()) continue;  // closed earlier this pass
            const std::shared_ptr<Conn> conn = it->second;
            if (events[i].events & (EPOLLHUP | EPOLLERR)) {
                close_connection(reactor, *conn);
                continue;
            }
            if (events[i].events & EPOLLOUT) on_writable(reactor, *conn);
            if (conn->fd >= 0 && (events[i].events & EPOLLIN)) {
                on_readable(reactor, *conn);
            }
        }
        // Cross-thread messages: adopt new connections, flush completed
        // slots. Processed after the event batch so a recycled fd can
        // never alias a stale event.
        std::vector<Reactor::InboxMsg> inbox;
        {
            util::LockGuard lock{reactor.inbox_lock};
            inbox.swap(reactor.inbox);
        }
        for (auto& msg : inbox) {
            if (msg.new_fd >= 0) {
                add_connection(reactor, msg.new_fd);
            } else if (auto conn = msg.completed.lock(); conn && conn->fd >= 0) {
                flush_ready(reactor, *conn);
            }
        }
        if (reactor.stop.load(std::memory_order_acquire)) {
            // Final pass: everything completed has been flushed above
            // (the handler pool joined before the stop signal); close out.
            std::vector<std::shared_ptr<Conn>> remaining;
            remaining.reserve(reactor.conns.size());
            for (auto& [fd, conn] : reactor.conns) remaining.push_back(conn);
            for (auto& conn : remaining) close_connection(reactor, *conn);
            break;
        }
    }
}

void FrameServer::add_connection(Reactor& reactor, int fd) {
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->reactor_index = reactor.index;
    conn->events = EPOLLIN;
    epoll_event ev{};
    ev.events = conn->events;
    ev.data.fd = fd;
    if (::epoll_ctl(reactor.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        close_quietly(fd);
        open_connections_.fetch_sub(1, std::memory_order_acq_rel);
        metrics_->open.add(-1);
        return;
    }
    reactor.conns.emplace(fd, std::move(conn));
}

void FrameServer::close_connection(Reactor& reactor, Conn& conn) {
    if (conn.fd < 0) return;
    ::epoll_ctl(reactor.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    const int fd = conn.fd;
    conn.fd = -1;
    // Outstanding handler tasks still hold their Slot shared_ptrs; they
    // complete into orphaned slots and their inbox messages fail to lock
    // the dead weak_ptr. Nothing dangles.
    reactor.conns.erase(fd);
    open_connections_.fetch_sub(1, std::memory_order_acq_rel);
    metrics_->open.add(-1);
}

void FrameServer::update_interest(Reactor& reactor, Conn& conn) {
    std::uint32_t want = 0;
    if (!conn.reads_paused) want |= EPOLLIN;
    if (!conn.out.empty()) want |= EPOLLOUT;
    if (want == conn.events) return;
    conn.events = want;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = conn.fd;
    ::epoll_ctl(reactor.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void FrameServer::on_readable(Reactor& reactor, Conn& conn) {
    char buf[64 << 10];
    std::size_t read_this_pass = 0;
    for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
        if (n > 0) {
            conn.in.append(buf, static_cast<std::size_t>(n));
            read_this_pass += static_cast<std::size_t>(n);
            if (read_this_pass >= kMaxReadPerPass) break;  // fairness bound
            continue;
        }
        if (n == 0) {  // peer closed
            close_connection(reactor, conn);
            return;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_connection(reactor, conn);
        return;
    }
    parse_frames(reactor, conn);
}

void FrameServer::parse_frames(Reactor& reactor, Conn& conn) {
    for (;;) {
        const std::size_t avail = conn.in.size() - conn.in_off;
        if (avail < 4) break;
        const auto len = protocol::frame_length(conn.in.data() + conn.in_off);
        if (!len) {
            // Garbage framing is unrecoverable -- same disconnect
            // read_frame() gives.
            close_connection(reactor, conn);
            return;
        }
        if (avail < 4u + *len) break;
        dispatch_frame(reactor, conn,
                       std::string_view{conn.in}.substr(conn.in_off + 4, *len));
        if (conn.fd < 0) return;  // dispatch closed the connection
        conn.in_off += 4u + *len;
    }
    // Compact lazily: only when the consumed prefix dominates the buffer.
    if (conn.in_off > 0 && conn.in_off >= conn.in.size() / 2) {
        conn.in.erase(0, conn.in_off);
        conn.in_off = 0;
    }
    flush_ready(reactor, conn);
    // Backpressure: a connection that has pipelined past the cap stops
    // being read until the client drains responses.
    conn.reads_paused = conn.slots.size() >= kMaxPendingRequests ||
                        conn.out_bytes >= cfg_.max_output_bytes;
    if (conn.fd >= 0) update_interest(reactor, conn);
}

void FrameServer::enqueue_malformed(Conn& conn, std::string reason) {
    metrics_->malformed.inc();
    auto slot = std::make_shared<Slot>();
    slot->response.code = protocol::ErrorCode::MalformedRequest;
    slot->response.payload = std::move(reason);
    slot->done.store(true, std::memory_order_release);
    conn.slots.push_back(std::move(slot));
}

void FrameServer::dispatch_frame(Reactor& reactor, Conn& conn,
                                 std::string_view frame) {
    metrics_->frames.inc();
    if (protocol::looks_like_batch(frame)) {
        std::string parse_error;
        auto requests = protocol::parse_batch(frame, &parse_error);
        if (!requests) {
            // A structurally bad batch is rejected whole with one frame;
            // the connection survives, like any other malformed request.
            enqueue_malformed(conn, std::move(parse_error));
            return;
        }
        if (batch_handler_) {
            std::vector<std::shared_ptr<Slot>> slots;
            slots.reserve(requests->size());
            for (const auto& request : *requests) {
                auto slot = std::make_shared<Slot>();
                slot->tagged = request.tag != 0;
                slot->shutdown = request.verb == protocol::Verb::Shutdown;
                conn.slots.push_back(slot);
                slots.push_back(std::move(slot));
            }
            const std::weak_ptr<Conn> wconn = reactor.conns.at(conn.fd);
            submit([this, &reactor, wconn, slots = std::move(slots),
                    requests = std::move(*requests)]() mutable {
                std::vector<protocol::Response> responses;
                try {
                    responses = batch_handler_(requests);
                } catch (const std::exception& e) {
                    responses.clear();
                    for (const auto& request : requests) {
                        protocol::Response r;
                        r.code = protocol::ErrorCode::Internal;
                        r.payload = e.what();
                        r.tag = request.tag;
                        responses.push_back(std::move(r));
                    }
                }
                for (std::size_t i = 0; i < slots.size(); ++i) {
                    protocol::Response r = i < responses.size()
                                               ? std::move(responses[i])
                                               : protocol::Response{};
                    if (i >= responses.size()) {
                        r.code = protocol::ErrorCode::Internal;
                        r.payload = "batch handler returned too few responses";
                    }
                    r.tag = requests[i].tag;
                    slots[i]->response = std::move(r);
                    slots[i]->done.store(true, std::memory_order_release);
                }
                post_completion(reactor, wconn);
            });
            return;
        }
        // No batch handler: expand across the handler pool, one dispatch
        // per sub-request (the service's own pool parallelizes them).
        for (auto& request : *requests) {
            dispatch_single(reactor, conn, std::move(request));
        }
        return;
    }

    std::string parse_error;
    auto request = protocol::parse_request(frame, &parse_error);
    if (!request) {
        enqueue_malformed(conn, std::move(parse_error));
        return;
    }
    dispatch_single(reactor, conn, std::move(*request));
}

void FrameServer::dispatch_single(Reactor& reactor, Conn& conn,
                                  protocol::Request request) {
    auto slot = std::make_shared<Slot>();
    slot->tagged = request.tag != 0;
    slot->shutdown = request.verb == protocol::Verb::Shutdown;
    conn.slots.push_back(slot);

    // Inline fast path: zero handoffs for requests the service can answer
    // from its caches with shared locks only.
    if (fast_handler_) {
        // The trace header scopes the handler so hot-path spans (and
        // the access log) attach to the caller's trace.
        obs::trace::ContextScope trace_scope{obs::trace::TraceContext{
            request.trace_id, request.trace_parent, request.trace_flags}};
        if (auto response = fast_handler_(request)) {
            response->tag = request.tag;
            slot->response = std::move(*response);
            slot->done.store(true, std::memory_order_release);
            metrics_->fast.inc();
            return;
        }
    }

    const std::weak_ptr<Conn> wconn = reactor.conns.at(conn.fd);
    const bool submitted =
        submit([this, &reactor, wconn, slot, request = std::move(request)] {
            obs::trace::ContextScope trace_scope{obs::trace::TraceContext{
                request.trace_id, request.trace_parent, request.trace_flags}};
            obs::trace::Span span{"server.request", "service"};
            span.set_label(protocol::name(request.verb));
            protocol::Response response;
            try {
                response = handler_(request);
            } catch (const std::exception& e) {
                response.code = protocol::ErrorCode::Internal;
                response.payload = e.what();
            }
            response.tag = request.tag;
            slot->response = std::move(response);
            slot->done.store(true, std::memory_order_release);
            post_completion(reactor, wconn);
        });
    if (!submitted) {
        slot->response.code = protocol::ErrorCode::ShuttingDown;
        slot->response.payload = "server is stopping";
        slot->done.store(true, std::memory_order_release);
    }
}

void FrameServer::flush_ready(Reactor& reactor, Conn& conn) {
    if (conn.fd < 0) return;
    // Move completed slots into the output queue. Untagged responses only
    // flush from the head (strict request order);
    // tagged responses flush as soon as they are done.
    bool blocked = false;
    for (auto it = conn.slots.begin(); it != conn.slots.end();) {
        Slot& slot = **it;
        if (!slot.done.load(std::memory_order_acquire)) {
            blocked = true;
            ++it;
            continue;
        }
        if (blocked && !slot.tagged) {
            ++it;
            continue;
        }
        Conn::OutChunk chunk;
        const std::string header = slot.response.encode_header();
        const auto prefix = protocol::frame_prefix(static_cast<std::uint32_t>(
            header.size() + slot.response.payload_view().size()));
        chunk.head.reserve(prefix.size() + header.size());
        chunk.head.append(prefix.data(), prefix.size()).append(header);
        if (slot.response.shared_payload) {
            chunk.shared_body = std::move(slot.response.shared_payload);
        } else {
            chunk.body = std::move(slot.response.payload);
        }
        conn.out_bytes += chunk.size();
        conn.out.push_back(std::move(chunk));
        if (slot.shutdown) conn.shutdown_pending = true;
        it = conn.slots.erase(it);
    }
    if (!flush_output(reactor, conn)) return;  // connection died
    if (conn.reads_paused && conn.slots.size() < kMaxPendingRequests / 2 &&
        conn.out_bytes < cfg_.max_output_bytes / 2) {
        conn.reads_paused = false;
    }
    update_interest(reactor, conn);
    if (conn.shutdown_pending && conn.out.empty()) {
        // The shutdown response reached the kernel; now tear down.
        conn.shutdown_pending = false;
        request_stop_from_reactor();
    }
}

bool FrameServer::flush_output(Reactor& reactor, Conn& conn) {
    while (!conn.out.empty()) {
        iovec iov[kMaxIov];
        int iov_count = 0;
        for (const auto& chunk : conn.out) {
            if (iov_count >= kMaxIov - 1) break;
            std::size_t off = chunk.off;
            if (off < chunk.head.size()) {
                iov[iov_count].iov_base =
                    const_cast<char*>(chunk.head.data()) + off;
                iov[iov_count].iov_len = chunk.head.size() - off;
                ++iov_count;
                off = 0;
            } else {
                off -= chunk.head.size();
            }
            const std::string_view body = chunk.body_view();
            if (off < body.size()) {
                iov[iov_count].iov_base = const_cast<char*>(body.data()) + off;
                iov[iov_count].iov_len = body.size() - off;
                ++iov_count;
            }
        }
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = static_cast<std::size_t>(iov_count);
        // sendmsg + MSG_NOSIGNAL: a dead peer surfaces as EPIPE -> close,
        // never SIGPIPE killing the process.
        const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                update_interest(reactor, conn);  // park on EPOLLOUT
                return true;
            }
            close_connection(reactor, conn);
            return false;
        }
        std::size_t advanced = static_cast<std::size_t>(n);
        conn.out_bytes -= advanced;
        while (advanced > 0 && !conn.out.empty()) {
            Conn::OutChunk& chunk = conn.out.front();
            const std::size_t remaining = chunk.size() - chunk.off;
            if (advanced >= remaining) {
                advanced -= remaining;
                conn.out.pop_front();
            } else {
                chunk.off += advanced;
                advanced = 0;
            }
        }
    }
    return true;
}

void FrameServer::on_writable(Reactor& reactor, Conn& conn) {
    if (!flush_output(reactor, conn)) return;
    if (conn.reads_paused && conn.slots.size() < kMaxPendingRequests / 2 &&
        conn.out_bytes < cfg_.max_output_bytes / 2) {
        conn.reads_paused = false;
    }
    update_interest(reactor, conn);
    if (conn.shutdown_pending && conn.out.empty()) {
        conn.shutdown_pending = false;
        request_stop_from_reactor();
    }
}
// hsw:end-reactor-thread

}  // namespace hsw::service
