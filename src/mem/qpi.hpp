// QPI link and remote (NUMA) memory access model.
//
// Table I: QPI runs at 8 GT/s (32 GB/s) on Sandy Bridge-EP and 9.6 GT/s
// (38.4 GB/s) on Haswell-EP. Remote DRAM reads ride the link and the
// remote socket's uncore, so remote bandwidth is capped by min(QPI,
// remote IMC) and remote latency adds the link hop.
#pragma once

#include "arch/generation.hpp"
#include "mem/bandwidth_model.hpp"
#include "util/units.hpp"

namespace hsw::mem {

class QpiLink {
public:
    explicit QpiLink(arch::Generation generation);

    /// Raw signalling bandwidth (Table I).
    [[nodiscard]] Bandwidth raw_bandwidth() const { return raw_; }

    /// Usable payload bandwidth after protocol overhead (headers, snoops).
    [[nodiscard]] Bandwidth effective_bandwidth() const {
        return raw_ * kProtocolEfficiency;
    }

    /// One-way hop latency in nanoseconds.
    [[nodiscard]] double hop_latency_ns() const { return hop_ns_; }

    static constexpr double kProtocolEfficiency = 0.75;

private:
    Bandwidth raw_;
    double hop_ns_ = 0.0;
};

/// Remote DRAM read bandwidth: the local cores' demand, throttled by the
/// extra remote latency, capped by min(QPI payload, remote IMC peak).
class RemoteMemoryModel {
public:
    RemoteMemoryModel(arch::Generation generation, unsigned socket_cores);

    [[nodiscard]] Bandwidth remote_dram_read(ConcurrencyConfig c, Frequency core,
                                             Frequency local_uncore,
                                             Frequency remote_uncore) const;

    /// Remote/local bandwidth ratio at a given operating point (the usual
    /// NUMA factor, ~0.55-0.7 on these parts).
    [[nodiscard]] double numa_factor(ConcurrencyConfig c, Frequency core,
                                     Frequency uncore) const;

    [[nodiscard]] const QpiLink& link() const { return link_; }

private:
    BandwidthModel local_;
    QpiLink link_;
    unsigned socket_cores_;
};

}  // namespace hsw::mem
