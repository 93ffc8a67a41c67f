#include "mem/cache.hpp"

#include <stdexcept>

namespace hsw::mem {

const CacheLevelParams& CacheHierarchy::at(Level l) const {
    for (const auto& p : levels) {
        if (p.level == l) return p;
    }
    throw std::out_of_range{"CacheHierarchy::at: unknown level"};
}

Level CacheHierarchy::level_for_working_set(std::size_t bytes, unsigned l3_slices) const {
    if (bytes <= at(Level::L1D).capacity_bytes) return Level::L1D;
    if (bytes <= at(Level::L2).capacity_bytes) return Level::L2;
    if (bytes <= at(Level::L3).capacity_bytes * l3_slices) return Level::L3;
    return Level::Dram;
}

const CacheHierarchy& hierarchy_for(arch::Generation g) {
    // Haswell-EP: doubled L1D/L2 bandwidth vs Sandy Bridge (Table I).
    static const CacheHierarchy haswell{{{
        {Level::L1D, 32 * 1024, 4, 64, 64.0, 32.0},
        {Level::L2, 256 * 1024, 12, 64, 64.0, 32.0},
        {Level::L3, 2560 * 1024, 34, 64, 16.0, 8.0},   // per-slice share
        {Level::Dram, 0, 200, 64, 8.0, 4.0},
    }}};
    static const CacheHierarchy sandy_bridge{{{
        {Level::L1D, 32 * 1024, 4, 64, 32.0, 16.0},
        {Level::L2, 256 * 1024, 12, 64, 32.0, 16.0},
        {Level::L3, 2560 * 1024, 31, 64, 12.0, 6.0},
        {Level::Dram, 0, 190, 64, 6.0, 3.0},
    }}};
    static const CacheHierarchy westmere{{{
        {Level::L1D, 32 * 1024, 4, 64, 16.0, 16.0},
        {Level::L2, 256 * 1024, 10, 64, 24.0, 12.0},
        {Level::L3, 2048 * 1024, 40, 64, 10.0, 5.0},
        {Level::Dram, 0, 220, 64, 5.0, 2.5},
    }}};

    switch (g) {
        case arch::Generation::WestmereEP: return westmere;
        case arch::Generation::SandyBridgeEP:
        case arch::Generation::IvyBridgeEP: return sandy_bridge;
        case arch::Generation::HaswellEP:
        case arch::Generation::HaswellHE: return haswell;
        // No Skylake-SP hierarchy yet: it reuses the Haswell one.
        case arch::Generation::SkylakeSP: return haswell;
    }
    return haswell;
}

}  // namespace hsw::mem
