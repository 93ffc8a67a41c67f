#include "mem/qpi.hpp"

#include <algorithm>

namespace hsw::mem {

QpiLink::QpiLink(arch::Generation generation) {
    switch (generation) {
        case arch::Generation::HaswellEP:
        case arch::Generation::HaswellHE:
            raw_ = Bandwidth::gb_per_sec(38.4);  // 9.6 GT/s (Table I)
            hop_ns_ = 40.0;
            break;
        case arch::Generation::SandyBridgeEP:
        case arch::Generation::IvyBridgeEP:
            raw_ = Bandwidth::gb_per_sec(32.0);  // 8 GT/s
            hop_ns_ = 45.0;
            break;
        case arch::Generation::WestmereEP:
            raw_ = Bandwidth::gb_per_sec(25.6);  // 6.4 GT/s
            hop_ns_ = 55.0;
            break;
        case arch::Generation::SkylakeSP:
            break;  // UPI is not modelled: zero bandwidth, zero hop latency
    }
}

RemoteMemoryModel::RemoteMemoryModel(arch::Generation generation, unsigned socket_cores)
    : local_{generation, socket_cores}, link_{generation}, socket_cores_{socket_cores} {}

Bandwidth RemoteMemoryModel::remote_dram_read(ConcurrencyConfig c, Frequency core,
                                              Frequency local_uncore,
                                              Frequency remote_uncore) const {
    // Per-thread demand shrinks with the extra round-trip latency: scale
    // the local latency-limited bandwidth by t_local / (t_local + t_link).
    const Bandwidth local_single =
        local_.dram_read(ConcurrencyConfig{1, c.threads_per_core}, core, local_uncore);
    const double t_local_ns = local_single.as_gb_per_sec() > 0.0
                                  ? 64.0 / local_single.as_gb_per_sec()
                                  : 1e9;  // ns per cache line per thread
    const double t_link_ns = 2.0 * link_.hop_latency_ns() /
                             std::max(1u, c.cores);  // pipelined across cores
    const double latency_scale = t_local_ns / (t_local_ns + t_link_ns);

    const Bandwidth local_aggregate = local_.dram_read(c, core, local_uncore);
    const double demand = local_aggregate.as_gb_per_sec() * latency_scale;

    // Caps: the QPI payload bandwidth and the remote socket's IMCs (which
    // run at the remote uncore clock).
    const double qpi_cap = link_.effective_bandwidth().as_gb_per_sec();
    const double remote_imc_cap =
        local_.dram_read(ConcurrencyConfig{socket_cores_, 2}, core, remote_uncore)
            .as_gb_per_sec();
    return Bandwidth::gb_per_sec(std::min({demand, qpi_cap, remote_imc_cap}));
}

double RemoteMemoryModel::numa_factor(ConcurrencyConfig c, Frequency core,
                                      Frequency uncore) const {
    const double local = local_.dram_read(c, core, uncore).as_gb_per_sec();
    if (local <= 0.0) return 0.0;
    return remote_dram_read(c, core, uncore, uncore).as_gb_per_sec() / local;
}

}  // namespace hsw::mem
