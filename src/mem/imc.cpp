#include "mem/imc.hpp"

namespace hsw::mem {

DdrConfig ddr_config_for(arch::Generation g) {
    switch (g) {
        case arch::Generation::WestmereEP:
            return {"DDR3-1333", 1333.0};
        case arch::Generation::SandyBridgeEP:
        case arch::Generation::IvyBridgeEP:
            return {"DDR3-1600", 1600.0};
        case arch::Generation::HaswellEP:
        case arch::Generation::HaswellHE:
            return {"DDR4-2133", 2133.0};
        case arch::Generation::SkylakeSP:
            // Not yet modelled (the part runs DDR4-2666); kept at Haswell's.
            return {"DDR4-2133", 2133.0};
    }
    return {"DDR4-2133", 2133.0};
}

Imc::Imc(arch::Generation generation, unsigned channels)
    : generation_{generation}, channels_{channels} {}

Bandwidth Imc::theoretical_peak() const {
    const DdrConfig cfg = ddr_config_for(generation_);
    return Bandwidth::bytes_per_sec(static_cast<double>(channels_) * cfg.bus_bytes *
                                    cfg.mega_transfers * 1e6);
}

Bandwidth Imc::sustained_read_peak() const {
    return theoretical_peak() * kStreamEfficiency;
}

}  // namespace hsw::mem
