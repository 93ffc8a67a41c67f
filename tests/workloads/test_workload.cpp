#include <gtest/gtest.h>

#include "workloads/mixes.hpp"
#include "workloads/workload.hpp"

namespace hsw::workloads {
namespace {

using util::Time;

TEST(Workload, ConstantModulationIsUnity) {
    const Workload& w = compute();
    EXPECT_DOUBLE_EQ(w.modulation_factor(Time::sec(0)), 1.0);
    EXPECT_DOUBLE_EQ(w.modulation_factor(Time::sec(17)), 1.0);
}

TEST(Workload, SinusoidOscillatesAroundDepth) {
    const Workload& w = sinus();
    double lo = 1e9;
    double hi = -1e9;
    for (int ms = 0; ms < 4000; ms += 10) {
        const double m = w.modulation_factor(Time::ms(ms));
        lo = std::min(lo, m);
        hi = std::max(hi, m);
    }
    EXPECT_NEAR(hi, 1.0, 0.01);
    EXPECT_NEAR(lo, 1.0 - w.modulation_depth, 0.01);
}

TEST(Workload, SquareWaveAlternates) {
    const Workload& w = mprime();
    const double high = w.modulation_factor(Time::sec(1));
    const double low = w.modulation_factor(
        Time::from_seconds(w.modulation_period_s * 0.75));
    EXPECT_DOUBLE_EQ(high, 1.0);
    EXPECT_NEAR(low, 1.0 - w.modulation_depth, 1e-9);
}

TEST(Workload, HyperThreadingIncreasesCdyn) {
    for (const Workload* w : {&firestarter(), &linpack(), &mprime(), &compute()}) {
        EXPECT_GT(w->cdyn_at(Time::zero(), true), w->cdyn_at(Time::zero(), false))
            << w->name;
    }
}

TEST(Workload, IpcDropsWithSlowerUncore) {
    const Workload& w = firestarter();
    // ratio = f_core / f_uncore: larger ratio means relatively slower uncore.
    EXPECT_GT(w.ipc(0.7, true), w.ipc(1.0, true));
    EXPECT_GT(w.ipc(1.0, true), w.ipc(1.3, true));
}

TEST(Workload, IpcNeverNonPositive) {
    for (const Workload* w : {&firestarter(), &memory_stream(), &linpack()}) {
        EXPECT_GT(w->ipc(10.0, true), 0.0) << w->name;
        EXPECT_GT(w->ipc(10.0, false), 0.0) << w->name;
    }
}

TEST(Workload, FirestarterAnchorsFromPaper) {
    const Workload& fs = firestarter();
    EXPECT_NEAR(fs.ipc(1.0, true), 3.1, 0.05);   // Section VIII: 3.1 with HT
    EXPECT_NEAR(fs.ipc(1.0, false), 2.8, 0.05);  // 2.8 without
    EXPECT_GT(fs.avx_fraction, 0.9);
    EXPECT_DOUBLE_EQ(fs.cdyn_ht, 1.0);  // the reference payload
}

TEST(Workload, ValidationSetHasSixBenchmarks) {
    // Fig. 2 legend: sinus, busy wait, memory, compute, dgemm, sqrt
    // (plus idle, handled separately).
    const auto set = rapl_validation_set();
    EXPECT_EQ(set.size(), 6u);
    for (const Workload* w : set) {
        EXPECT_GT(w->cdyn_noht, 0.0);
        EXPECT_GT(w->ipc_unity_noht, 0.0);
    }
}

TEST(Workload, WhileOneHasNoMemoryTraffic) {
    // Table III lower-bound scenario: "a benchmark that does not access any
    // memory".
    const Workload& w = while_one();
    EXPECT_EQ(w.dram_gbs_per_core, 0.0);
    EXPECT_EQ(w.stall_fraction, 0.0);
}

TEST(Workload, StressTestPowerOrdering) {
    // LINPACK has the densest execution (highest current intensity);
    // mprime the lowest cdyn of the three (highest TDP frequency).
    EXPECT_GT(linpack().current_intensity, firestarter().current_intensity);
    EXPECT_LT(mprime().cdyn_noht, firestarter().cdyn_noht);
}

}  // namespace
}  // namespace hsw::workloads
