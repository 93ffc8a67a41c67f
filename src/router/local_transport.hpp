// In-process Transport for tests and benches.
//
// Maps shard addresses onto handler callbacks (typically
// SurveyService::handle of an in-process service instance), so the whole
// router -- ring placement, pooling, failover, health probing, metrics
// aggregation -- exercises without sockets. Fault injection is per
// endpoint: set_down() makes new dials *and* in-flight connections throw
// TransportError, which is exactly what killing a shard process does to
// the TCP transport.
//
// This matters beyond convenience: the scaling bench measures shard-count
// speedup on contended hot paths, and syscall time on a loopback socket
// would otherwise dominate the very contention being measured.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "router/upstream.hpp"
#include "util/sync.hpp"

namespace hsw::router {

class LocalTransport final : public Transport {
public:
    using Handler = std::function<service::protocol::Response(
        const service::protocol::Request&)>;

    /// Registers (or replaces) the handler serving `address` ("host:port").
    void add_endpoint(const std::string& address, Handler handler)
        EXCLUDES(lock_);

    /// Down endpoints refuse new dials and poison live connections.
    void set_down(const std::string& address, bool down) EXCLUDES(lock_);

    /// Dial / call tallies for assertions.
    [[nodiscard]] std::uint64_t dials(const std::string& address) const
        EXCLUDES(lock_);
    [[nodiscard]] std::uint64_t calls(const std::string& address) const
        EXCLUDES(lock_);

    [[nodiscard]] std::unique_ptr<Connection> connect(
        const ShardEndpoint& endpoint, const TransportOptions& options) override
        EXCLUDES(lock_);

private:
    struct Endpoint {
        Handler handler;
        std::atomic<bool> down{false};
        std::atomic<std::uint64_t> dials{0};
        std::atomic<std::uint64_t> calls{0};
    };

    class LocalConnection final : public Connection {
    public:
        explicit LocalConnection(std::shared_ptr<Endpoint> endpoint)
            : endpoint_{std::move(endpoint)} {}
        [[nodiscard]] service::protocol::Response call(
            const service::protocol::Request& request) override {
            if (endpoint_->down.load(std::memory_order_acquire)) {
                throw TransportError{"endpoint down"};
            }
            endpoint_->calls.fetch_add(1, std::memory_order_relaxed);
            return endpoint_->handler(request);
        }
        void send_batch(std::vector<service::protocol::Request> requests) override {
            pending_ = std::move(requests);
        }
        /// The handler runs here, at receive time, so a set_down() between
        /// the halves fails the batch the way a shard death mid-reply does.
        [[nodiscard]] std::vector<service::protocol::Response> receive_batch() override {
            const auto requests = std::exchange(pending_, {});
            std::vector<service::protocol::Response> responses;
            responses.reserve(requests.size());
            for (const auto& request : requests) responses.push_back(call(request));
            return responses;
        }

    private:
        std::shared_ptr<Endpoint> endpoint_;
        std::vector<service::protocol::Request> pending_;
    };

    [[nodiscard]] std::shared_ptr<Endpoint> find(const std::string& address) const
        EXCLUDES(lock_);

    mutable util::Mutex lock_;
    std::map<std::string, std::shared_ptr<Endpoint>> endpoints_ GUARDED_BY(lock_);
};

}  // namespace hsw::router
