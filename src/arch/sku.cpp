#include "arch/sku.hpp"

#include <algorithm>

namespace hsw::arch {

Frequency Sku::max_turbo(unsigned active_cores) const {
    if (turbo_bins.empty()) return nominal_frequency;
    const std::size_t idx =
        std::min<std::size_t>(active_cores == 0 ? 0 : active_cores - 1, turbo_bins.size() - 1);
    return turbo_bins[idx];
}

Frequency Sku::max_avx_turbo(unsigned active_cores) const {
    if (avx_turbo_bins.empty()) return max_turbo(active_cores);
    const std::size_t idx = std::min<std::size_t>(active_cores == 0 ? 0 : active_cores - 1,
                                                  avx_turbo_bins.size() - 1);
    return avx_turbo_bins[idx];
}

Frequency Sku::max_avx512_turbo(unsigned active_cores) const {
    if (avx512_turbo_bins.empty()) return max_avx_turbo(active_cores);
    const std::size_t idx = std::min<std::size_t>(active_cores == 0 ? 0 : active_cores - 1,
                                                  avx512_turbo_bins.size() - 1);
    return avx512_turbo_bins[idx];
}

std::vector<Frequency> Sku::selectable_pstates() const {
    std::vector<Frequency> out;
    for (unsigned r = min_frequency.ratio(); r <= nominal_frequency.ratio(); ++r) {
        out.push_back(Frequency::from_ratio(r));
    }
    // The turbo request level is encoded as nominal ratio + 1.
    out.push_back(Frequency::from_ratio(nominal_frequency.ratio() + 1));
    return out;
}

namespace {

constexpr auto G = [](double v) { return Frequency::ghz(v); };

std::vector<Frequency> ghz_bins(std::initializer_list<double> vs) {
    std::vector<Frequency> out;
    for (double v : vs) out.push_back(Frequency::ghz(v));
    return out;
}

}  // namespace

const Sku& xeon_e5_2680_v3() {
    static const Sku sku{
        .model = "Intel Xeon E5-2680 v3",
        .generation = Generation::HaswellEP,
        .cores = 12,
        .hyperthreading = true,
        .min_frequency = G(1.2),
        .nominal_frequency = G(2.5),
        .tdp = Power::watts(120),
        // 1-2 active cores may reach 3.3 GHz, all-core non-AVX turbo 2.9 GHz.
        .turbo_bins = ghz_bins({3.3, 3.3, 3.2, 3.1, 3.1, 3.0, 3.0, 3.0, 3.0, 3.0, 2.9, 2.9}),
        .avx_base_frequency = G(2.1),
        // "AVX turbo frequencies are between 2.8 and 3.1 GHz, depending on the
        // number of active cores" (Section II-F).
        .avx_turbo_bins = ghz_bins({3.1, 3.1, 3.0, 3.0, 2.9, 2.9, 2.9, 2.8, 2.8, 2.8, 2.8, 2.8}),
        .avx512_base_frequency = Frequency::zero(),
        .avx512_turbo_bins = {},
        .uncore_min = G(1.2),
        .uncore_max = G(3.0),
        .l3_bytes = 12ull * 5ull * 512ull * 1024ull,  // 30 MiB = 12 x 2.5 MiB
    };
    return sku;
}

const Sku& xeon_e5_2667_v3() {
    static const Sku sku{
        .model = "Intel Xeon E5-2667 v3",
        .generation = Generation::HaswellEP,
        .cores = 8,
        .hyperthreading = true,
        .min_frequency = G(1.2),
        .nominal_frequency = G(3.2),
        .tdp = Power::watts(135),
        .turbo_bins = ghz_bins({3.6, 3.6, 3.5, 3.5, 3.4, 3.4, 3.4, 3.4}),
        .avx_base_frequency = G(2.7),
        .avx_turbo_bins = ghz_bins({3.5, 3.5, 3.4, 3.4, 3.3, 3.3, 3.2, 3.2}),
        .avx512_base_frequency = Frequency::zero(),
        .avx512_turbo_bins = {},
        .uncore_min = G(1.2),
        .uncore_max = G(3.0),
        .l3_bytes = 8ull * 5ull * 512ull * 1024ull,  // 20 MiB
    };
    return sku;
}

const Sku& xeon_e5_2699_v3() {
    static const Sku sku{
        .model = "Intel Xeon E5-2699 v3",
        .generation = Generation::HaswellEP,
        .cores = 18,
        .hyperthreading = true,
        .min_frequency = G(1.2),
        .nominal_frequency = G(2.3),
        .tdp = Power::watts(145),
        .turbo_bins = ghz_bins({3.6, 3.6, 3.4, 3.3, 3.2, 3.1, 3.0, 2.9, 2.9, 2.8, 2.8, 2.8,
                                2.8, 2.8, 2.8, 2.8, 2.8, 2.8}),
        .avx_base_frequency = G(1.9),
        .avx_turbo_bins = ghz_bins({3.4, 3.4, 3.2, 3.1, 3.0, 2.9, 2.8, 2.7, 2.7, 2.6, 2.6,
                                    2.6, 2.6, 2.6, 2.6, 2.6, 2.6, 2.6}),
        .avx512_base_frequency = Frequency::zero(),
        .avx512_turbo_bins = {},
        .uncore_min = G(1.2),
        .uncore_max = G(3.0),
        .l3_bytes = 18ull * 5ull * 512ull * 1024ull,  // 45 MiB
    };
    return sku;
}

const Sku& core_i7_4770() {
    static const Sku sku{
        .model = "Intel Core i7-4770",
        .generation = Generation::HaswellHE,
        .cores = 4,
        .hyperthreading = true,
        .min_frequency = G(0.8),
        .nominal_frequency = G(3.4),
        .tdp = Power::watts(84),
        .turbo_bins = ghz_bins({3.9, 3.9, 3.8, 3.7}),
        // Desktop Haswell has no published AVX frequency levels; the
        // nominal clock is guaranteed.
        .avx_base_frequency = G(3.4),
        .avx_turbo_bins = {},
        .avx512_base_frequency = Frequency::zero(),
        .avx512_turbo_bins = {},
        .uncore_min = G(0.8),
        .uncore_max = G(3.4),
        .l3_bytes = 8ull * 1024ull * 1024ull,
    };
    return sku;
}

const Sku& xeon_e5_2670() {
    static const Sku sku{
        .model = "Intel Xeon E5-2670",
        .generation = Generation::SandyBridgeEP,
        .cores = 8,
        .hyperthreading = true,
        .min_frequency = G(1.2),
        .nominal_frequency = G(2.6),
        .tdp = Power::watts(115),
        .turbo_bins = ghz_bins({3.3, 3.3, 3.2, 3.2, 3.1, 3.1, 3.0, 3.0}),
        // Sandy Bridge has no separate AVX frequency level (Section V-B:
        // the concept was introduced with Haswell).
        .avx_base_frequency = G(2.6),
        .avx_turbo_bins = {},
        .avx512_base_frequency = Frequency::zero(),
        .avx512_turbo_bins = {},
        .uncore_min = G(1.2),
        .uncore_max = G(2.6),  // uncore is clocked with the cores
        .l3_bytes = 20ull * 1024ull * 1024ull,
    };
    return sku;
}

const Sku& xeon_e5_2690_v2() {
    static const Sku sku{
        .model = "Intel Xeon E5-2690 v2",
        .generation = Generation::IvyBridgeEP,
        .cores = 10,
        .hyperthreading = true,
        .min_frequency = G(1.2),
        .nominal_frequency = G(3.0),
        .tdp = Power::watts(130),
        .turbo_bins = ghz_bins({3.6, 3.6, 3.5, 3.4, 3.4, 3.3, 3.3, 3.3, 3.3, 3.3}),
        // Like Sandy Bridge, no separate AVX frequency level yet.
        .avx_base_frequency = G(3.0),
        .avx_turbo_bins = {},
        .avx512_base_frequency = Frequency::zero(),
        .avx512_turbo_bins = {},
        .uncore_min = G(1.2),
        .uncore_max = G(3.0),  // uncore is clocked with the cores
        .l3_bytes = 25ull * 1024ull * 1024ull,
    };
    return sku;
}

const Sku& xeon_gold_6150() {
    static const Sku sku{
        .model = "Intel Xeon Gold 6150",
        .generation = Generation::SkylakeSP,
        .cores = 18,
        .hyperthreading = true,
        .min_frequency = G(1.2),
        .nominal_frequency = G(2.7),
        .tdp = Power::watts(165),
        .turbo_bins = ghz_bins({3.7, 3.7, 3.5, 3.5, 3.5, 3.5, 3.5, 3.5, 3.4, 3.4, 3.4, 3.4,
                                3.4, 3.4, 3.4, 3.4, 3.4, 3.4}),
        // AVX2 license (L1) base and turbo table.
        .avx_base_frequency = G(2.2),
        .avx_turbo_bins = ghz_bins({3.6, 3.6, 3.4, 3.4, 3.3, 3.3, 3.1, 3.1, 3.1, 3.1, 3.1,
                                    3.1, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0}),
        // AVX-512 license (L2) table: the steep all-core drop the Skylake-SP
        // paper highlights (2.7 GHz nominal -> 1.9 GHz all-core AVX-512).
        .avx512_base_frequency = G(1.9),
        .avx512_turbo_bins = ghz_bins({3.5, 3.5, 3.2, 3.2, 3.0, 3.0, 2.8, 2.8, 2.7, 2.7,
                                       2.7, 2.7, 2.6, 2.6, 2.6, 2.6, 2.6, 2.6}),
        // Skylake-SP uncore tops out lower than Haswell-EP and scales per die.
        .uncore_min = G(1.2),
        .uncore_max = G(2.4),
        .l3_bytes = 18ull * 1408ull * 1024ull,  // 24.75 MiB = 18 x 1.375 MiB
    };
    return sku;
}

const Sku& xeon_x5670() {
    static const Sku sku{
        .model = "Intel Xeon X5670",
        .generation = Generation::WestmereEP,
        .cores = 6,
        .hyperthreading = true,
        .min_frequency = G(1.6),
        .nominal_frequency = G(2.93),
        .tdp = Power::watts(95),
        .turbo_bins = ghz_bins({3.33, 3.33, 3.06, 3.06, 3.06, 3.06}),
        .avx_base_frequency = G(2.93),
        .avx_turbo_bins = {},
        .avx512_base_frequency = Frequency::zero(),
        .avx512_turbo_bins = {},
        .uncore_min = G(2.66),
        .uncore_max = G(2.66),  // fixed uncore clock
        .l3_bytes = 12ull * 1024ull * 1024ull,
    };
    return sku;
}

}  // namespace hsw::arch
