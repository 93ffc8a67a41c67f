#include "mem/bandwidth_model.hpp"

#include <algorithm>
#include <cmath>

#include "arch/calibration.hpp"

namespace hsw::mem {

namespace cal = hsw::arch::cal;

BandwidthModel::BandwidthModel(arch::Generation generation, unsigned socket_cores)
    : generation_{generation}, socket_cores_{socket_cores} {
    switch (generation) {
        case arch::Generation::HaswellEP:
        case arch::Generation::HaswellHE:
            l3_ = {cal::kHswL3CoreCyclesPerByte, cal::kHswL3UncoreCyclesPerByte,
                   cal::kHswL3FlatSecPerGB, cal::kHswL3RingCapacityBytesPerCycle, 0.0};
            dram_ = {cal::kHswDramCoreCyclesPerByte, cal::kHswDramUncoreCyclesPerByte,
                     cal::kHswDramFlatSecPerGB, 0.0, cal::kHswDramPeakGBs};
            break;
        case arch::Generation::SandyBridgeEP:
        case arch::Generation::IvyBridgeEP:
            l3_ = {cal::kSnbL3CoreCyclesPerByte, cal::kSnbL3UncoreCyclesPerByte,
                   cal::kSnbL3FlatSecPerGB, cal::kSnbL3RingCapacityBytesPerCycle, 0.0};
            dram_ = {cal::kSnbDramCoreCyclesPerByte, cal::kSnbDramUncoreCyclesPerByte,
                     cal::kSnbDramFlatSecPerGB, 0.0, cal::kSnbDramPeakGBs};
            break;
        case arch::Generation::WestmereEP:
            l3_ = {cal::kWsmL3CoreCyclesPerByte, cal::kWsmL3UncoreCyclesPerByte,
                   cal::kWsmL3FlatSecPerGB, cal::kWsmL3RingCapacityBytesPerCycle, 0.0};
            dram_ = {cal::kWsmDramCoreCyclesPerByte, cal::kWsmDramUncoreCyclesPerByte,
                     cal::kWsmDramFlatSecPerGB, 0.0, cal::kWsmDramPeakGBs};
            break;
        case arch::Generation::SkylakeSP:
            // Not calibrated yet: all-zero coefficients, so every read
            // bandwidth is 0 GB/s (EXPERIMENTS.md, "Known deviations").
            break;
    }
}

Bandwidth BandwidthModel::aggregate(const LevelCoeffs& k, ConcurrencyConfig c,
                                    Frequency core, Frequency uncore,
                                    bool l3_bonus) const {
    const double f_core = std::max(core.as_ghz(), 0.1);
    const double f_unc = std::max(uncore.as_ghz(), 0.1);

    // Per-thread latency-limited bandwidth (GB/s).
    const double per_thread = 1.0 / (k.core_cpb / f_core + k.unc_cpb / f_unc + k.flat);

    // A second hardware thread hides part of the latency but shares the
    // core's ports: worth kHtBandwidthBonus of one thread's bandwidth.
    double per_core = per_thread;
    if (c.threads_per_core >= 2) per_core *= 1.0 + cal::kHtBandwidthBonus;

    // Slightly superlinear core scaling at low concurrency (Section VII).
    double demand = per_core * static_cast<double>(c.cores);
    if (l3_bonus && socket_cores_ > 1) {
        const double ramp = 1.0 - std::exp(-static_cast<double>(c.cores - 1) / 3.0);
        demand *= 1.0 + cal::kL3LowConcurrencyBonus * ramp;
    }

    // Domain capacity.
    double capacity_gbs;
    if (k.capacity_bytes_per_uncore_cycle > 0.0) {
        capacity_gbs = k.capacity_bytes_per_uncore_cycle * f_unc;
    } else {
        capacity_gbs = k.fixed_capacity_gbs;
        const bool haswell = generation_ == arch::Generation::HaswellEP ||
                             generation_ == arch::Generation::HaswellHE;
        if (haswell) {
            // The IMCs clock with the uncore: UFS normally holds it above
            // the knee, but a software uncore cap throttles the peak.
            capacity_gbs *=
                std::min(1.0, f_unc / cal::kHswDramCapacityUncoreKneeGhz);
        } else if (generation_ != arch::Generation::WestmereEP &&
                   cal::kSnbDramCapacityTracksUncore) {
            // Sandy Bridge-EP: the (core-coupled) uncore clock throttles the
            // effective IMC capacity below nominal speed.
            const double nominal = 2.6;
            capacity_gbs *= std::min(1.0, f_unc / nominal);
        }
    }

    return Bandwidth::gb_per_sec(std::min(demand, capacity_gbs));
}

Bandwidth BandwidthModel::l3_read(ConcurrencyConfig c, Frequency core,
                                  Frequency uncore) const {
    return aggregate(l3_, c, core, uncore, /*l3_bonus=*/true);
}

Bandwidth BandwidthModel::dram_read(ConcurrencyConfig c, Frequency core,
                                    Frequency uncore) const {
    return aggregate(dram_, c, core, uncore, /*l3_bonus=*/false);
}

Bandwidth BandwidthModel::dram_demand_per_core(Frequency core) const {
    const double f_core = std::max(core.as_ghz(), 0.1);
    return Bandwidth::gb_per_sec(
        1.0 / (dram_.core_cpb / f_core + dram_.unc_cpb / 3.0 + dram_.flat));
}

}  // namespace hsw::mem
