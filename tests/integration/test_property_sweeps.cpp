// Cross-cutting property sweeps (TEST_P): invariants that must hold over
// whole parameter grids, not just the paper's example points.
#include <gtest/gtest.h>

#include "core/node.hpp"
#include "pcu/pcu.hpp"
#include "tools/ftalat.hpp"
#include "workloads/mixes.hpp"

#include <ostream>

namespace hsw {
namespace {

using util::Frequency;
using util::Time;

// --- Section VI-A: "We chose 1.2 and 1.3 GHz, but other frequency pairs
// yield similar results." ---

struct FreqPair {
    unsigned from;
    unsigned to;
};

class FtalatPairSweep : public ::testing::TestWithParam<FreqPair> {};

TEST_P(FtalatPairSweep, LatencyDistributionIndependentOfPair) {
    const auto [from, to] = GetParam();
    core::Node node;
    tools::Ftalat ftalat{node};
    tools::FtalatConfig cfg;
    cfg.from_ratio = from;
    cfg.to_ratio = to;
    cfg.delay_mode = tools::DelayMode::Random;
    cfg.samples = 120;
    const auto r = ftalat.measure(cfg);
    // Same grid-driven distribution regardless of the distance between the
    // start and target frequency.
    EXPECT_GT(r.min(), 12.0) << from << "->" << to;
    EXPECT_LT(r.min(), 80.0) << from << "->" << to;
    EXPECT_GT(r.max(), 420.0) << from << "->" << to;
    EXPECT_LT(r.max(), 580.0) << from << "->" << to;
    EXPECT_NEAR(r.median(), 270.0, 130.0) << from << "->" << to;
}

INSTANTIATE_TEST_SUITE_P(PairsAcrossTheRange, FtalatPairSweep,
                         ::testing::Values(FreqPair{12, 13},   // the paper's pair
                                           FreqPair{12, 25},   // min -> nominal
                                           FreqPair{20, 21},   // mid-range step
                                           FreqPair{24, 14},   // large downward
                                           FreqPair{15, 22})); // upward multi-step

// --- PCU budget invariant: average package power never exceeds the
// effective budget, for every SKU and every stress workload. ---

struct BudgetCase {
    const arch::Sku* sku;
    const workloads::Workload* workload;
};

// Names each case by SKU and workload. gtest's default byte dump would put
// the two pointers into the test name, and those move from run to run.
void PrintTo(const BudgetCase& c, std::ostream* os) {
    *os << c.sku->model << " / " << c.workload->name;
}

class PcuBudgetSweep : public ::testing::TestWithParam<BudgetCase> {};

TEST_P(PcuBudgetSweep, AveragePowerWithinBudget) {
    const auto [sku, workload] = GetParam();
    pcu::PcuController controller{*sku, 0};
    pcu::PcuInputs in;
    in.cores.resize(sku->cores);
    for (auto& c : in.cores) {
        c.state = cstates::CState::C0;
        c.requested_ratio = sku->nominal_frequency.ratio() + 1;
        c.avx_fraction = workload->avx_fraction;
        c.stall_fraction = workload->stall_fraction;
        c.cdyn_utilization = workload->cdyn_ht;
    }
    in.uncore_traffic = workload->uncore_traffic;
    in.current_intensity = workload->current_intensity;
    in.fastest_system_core = sku->nominal_frequency;

    double sum = 0.0;
    Time t = Time::zero();
    const int ticks = 100;
    for (int i = 0; i < ticks; ++i) {
        t += Time::us(500);
        sum += controller.evaluate(in, t).estimated_package_power.as_watts();
    }
    const double avg = sum / ticks;
    const double budget = controller.effective_budget(in.current_intensity).as_watts();
    EXPECT_LE(avg, budget + 1.0)
        << sku->model << " running " << workload->name;
    // And the machine is not absurdly underutilized either.
    EXPECT_GT(avg, budget * 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    SkusAndWorkloads, PcuBudgetSweep,
    ::testing::Values(BudgetCase{&arch::xeon_e5_2680_v3(), &workloads::firestarter()},
                      BudgetCase{&arch::xeon_e5_2680_v3(), &workloads::linpack()},
                      BudgetCase{&arch::xeon_e5_2680_v3(), &workloads::mprime()},
                      BudgetCase{&arch::xeon_e5_2680_v3(), &workloads::dgemm()},
                      BudgetCase{&arch::xeon_e5_2667_v3(), &workloads::firestarter()},
                      BudgetCase{&arch::xeon_e5_2667_v3(), &workloads::linpack()},
                      BudgetCase{&arch::xeon_e5_2699_v3(), &workloads::firestarter()},
                      BudgetCase{&arch::xeon_e5_2699_v3(), &workloads::dgemm()}));

// --- APERF/MPERF consistency across every selectable p-state. ---

class PstateSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(PstateSweep, GrantedFrequencyMatchesRequestBelowTdp) {
    const unsigned ratio = GetParam();
    core::Node node;
    node.set_workload(0, &workloads::while_one(), 1);  // negligible power
    node.set_pstate(0, Frequency::from_ratio(ratio));
    node.run_for(Time::ms(3));
    EXPECT_EQ(node.core_frequency(0).ratio(), ratio);
    // The MSR status register agrees.
    EXPECT_EQ((node.msrs().read(0, msr::IA32_PERF_STATUS) >> 8) & 0xFF, ratio);
}

INSTANTIATE_TEST_SUITE_P(AllSelectableRatios, PstateSweep,
                         ::testing::Range(12u, 26u));

// --- Energy counter monotonicity: RAPL counters never run backwards
// (modulo the 32-bit wrap), under any load change pattern. ---

TEST(EnergyMonotonicity, CountersAdvanceUnderLoadChanges) {
    core::Node node;
    std::uint32_t prev_pkg = 0;
    std::uint64_t total = 0;
    const workloads::Workload* phases[] = {
        &workloads::firestarter(), nullptr, &workloads::memory_stream(), nullptr,
        &workloads::dgemm()};
    for (const auto* w : phases) {
        if (w != nullptr) {
            node.set_all_workloads(w, 2);
        } else {
            node.clear_all_workloads();
        }
        node.run_for(Time::ms(300));
        const auto raw = static_cast<std::uint32_t>(
            node.msrs().read(0, msr::MSR_PKG_ENERGY_STATUS));
        const std::uint32_t delta = raw - prev_pkg;  // wrap-safe
        total += delta;
        prev_pkg = raw;
    }
    // ~1.5 s of mixed load on one socket: energy in a plausible band.
    const double joules = static_cast<double>(total) / 16384.0;
    EXPECT_GT(joules, 30.0);
    EXPECT_LT(joules, 400.0);
}

}  // namespace
}  // namespace hsw
