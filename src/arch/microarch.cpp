#include "arch/microarch.hpp"

namespace hsw::arch {

const MicroarchParams& sandy_bridge_ep_params() {
    static constexpr MicroarchParams p{
        .name = "Sandy Bridge-EP",
        .decode_per_cycle = 4,
        .allocation_queue = 28,
        .allocation_queue_per_thread = true,
        .execute_uops_per_cycle = 6,
        .retire_uops_per_cycle = 4,
        .scheduler_entries = 54,
        .rob_entries = 168,
        .int_register_file = 160,
        .fp_register_file = 144,
        .simd_isa = "AVX",
        .has_fma = false,
        .flops_per_cycle_double = 8,   // 1x256-bit add + 1x256-bit mul
        .avx_issue_per_cycle = 2,
        .load_buffers = 64,
        .store_buffers = 36,
        .l1d_load_bytes_per_cycle = 32,   // 2x16 B loads
        .l1d_store_bytes_per_cycle = 16,  // 1x16 B store
        .l2_bytes_per_cycle = 32,
        .supported_memory = "4x DDR3-1600",
        .dram_bandwidth_gbs = 51.2,
        .qpi_speed_gts = 8.0,
        .qpi_bandwidth_gbs = 32.0,
    };
    return p;
}

const MicroarchParams& haswell_ep_params() {
    static constexpr MicroarchParams p{
        .name = "Haswell-EP",
        .decode_per_cycle = 4,
        .allocation_queue = 56,
        .allocation_queue_per_thread = false,
        .execute_uops_per_cycle = 8,
        .retire_uops_per_cycle = 4,
        .scheduler_entries = 60,
        .rob_entries = 192,
        .int_register_file = 168,
        .fp_register_file = 168,
        .simd_isa = "AVX2",
        .has_fma = true,
        .flops_per_cycle_double = 16,  // 2x256-bit FMA
        .avx_issue_per_cycle = 2,
        .load_buffers = 72,
        .store_buffers = 42,
        .l1d_load_bytes_per_cycle = 64,   // 2x32 B loads
        .l1d_store_bytes_per_cycle = 32,  // 1x32 B store
        .l2_bytes_per_cycle = 64,
        .supported_memory = "4x DDR4-2133",
        .dram_bandwidth_gbs = 68.2,
        .qpi_speed_gts = 9.6,
        .qpi_bandwidth_gbs = 38.4,
    };
    return p;
}

const MicroarchParams& westmere_ep_params() {
    static constexpr MicroarchParams p{
        .name = "Westmere-EP",
        .decode_per_cycle = 4,
        .allocation_queue = 28,
        .allocation_queue_per_thread = true,
        .execute_uops_per_cycle = 6,
        .retire_uops_per_cycle = 4,
        .scheduler_entries = 36,
        .rob_entries = 128,
        .int_register_file = 0,   // unified RRF design; not comparable
        .fp_register_file = 0,
        .simd_isa = "SSE4.2",
        .has_fma = false,
        .flops_per_cycle_double = 4,
        .avx_issue_per_cycle = 0,
        .load_buffers = 48,
        .store_buffers = 32,
        .l1d_load_bytes_per_cycle = 16,
        .l1d_store_bytes_per_cycle = 16,
        .l2_bytes_per_cycle = 32,
        .supported_memory = "3x DDR3-1333",
        .dram_bandwidth_gbs = 32.0,
        .qpi_speed_gts = 6.4,
        .qpi_bandwidth_gbs = 25.6,
    };
    return p;
}

const MicroarchParams& params_for(Generation g) {
    switch (g) {
        case Generation::WestmereEP:
            return westmere_ep_params();
        case Generation::SandyBridgeEP:
        case Generation::IvyBridgeEP:
            return sandy_bridge_ep_params();
        case Generation::HaswellEP:
        case Generation::HaswellHE:
            return haswell_ep_params();
        case Generation::SkylakeSP:
            // No Skylake-SP table yet: it reports the Haswell-EP parameters.
            return haswell_ep_params();
    }
    return haswell_ep_params();
}

}  // namespace hsw::arch
