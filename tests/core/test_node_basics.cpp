#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "core/node.hpp"
#include "msr/addresses.hpp"
#include "util/rng.hpp"
#include "workloads/mixes.hpp"

namespace hsw::core {
namespace {

using util::Frequency;
using util::Time;

TEST(Node, DefaultIsThePaperTestSystem) {
    Node node;
    EXPECT_EQ(node.socket_count(), 2u);
    EXPECT_EQ(node.cores_per_socket(), 12u);
    EXPECT_EQ(node.cpu_count(), 24u);
    EXPECT_EQ(node.sku().model, "Intel Xeon E5-2680 v3");
    EXPECT_EQ(node.generation(), arch::Generation::HaswellEP);
}

TEST(Node, CpuIdMapping) {
    Node node;
    EXPECT_EQ(node.cpu_id(0, 0), 0u);
    EXPECT_EQ(node.cpu_id(1, 0), 12u);
    EXPECT_EQ(node.socket_of(13), 1u);
    EXPECT_EQ(node.core_of(13), 1u);
}

TEST(Node, TimeAdvances) {
    Node node;
    EXPECT_EQ(node.now().as_ns(), 0);
    node.run_for(Time::ms(3));
    EXPECT_EQ(node.now(), Time::ms(3));
    node.run_until(Time::ms(10));
    EXPECT_EQ(node.now(), Time::ms(10));
}

TEST(Node, WorkloadWakesCoreAndCountersAdvance) {
    Node node;
    node.set_workload(0, &workloads::while_one(), 1);
    EXPECT_EQ(node.core_state(0), cstates::CState::C0);
    const auto a0 = node.msrs().read(0, msr::IA32_APERF);
    node.run_for(Time::ms(5));
    const auto a1 = node.msrs().read(0, msr::IA32_APERF);
    EXPECT_GT(a1, a0);
    // A parked core's APERF does not move.
    const auto b0 = node.msrs().read(5, msr::IA32_APERF);
    node.run_for(Time::ms(5));
    EXPECT_EQ(node.msrs().read(5, msr::IA32_APERF), b0);
}

TEST(Node, PstateRequestAppliesAtOpportunity) {
    Node node;
    node.set_workload(0, &workloads::while_one(), 1);
    node.set_pstate(0, Frequency::ghz(1.5));
    // Not instantaneous: the change waits for the PCU grid.
    node.run_for(Time::ms(2));  // > one full grid period
    EXPECT_DOUBLE_EQ(node.core_frequency(0).as_ghz(), 1.5);
    // IA32_PERF_STATUS reflects the granted ratio.
    EXPECT_EQ((node.msrs().read(0, msr::IA32_PERF_STATUS) >> 8) & 0xFF, 15u);
}

TEST(Node, EverySelectableRatioBelowTurboIsGranted) {
    Node node;
    node.set_workload(0, &workloads::while_one(), 1);
    auto pstates = node.sku().selectable_pstates();
    pstates.pop_back();  // nominal + 1 is the turbo request, not a clock
    ASSERT_EQ(pstates.front(), node.sku().min_frequency);
    for (const Frequency f : pstates) {
        node.set_pstate(0, f);
        node.run_for(Time::ms(2));
        EXPECT_DOUBLE_EQ(node.core_frequency(0).as_ghz(), f.as_ghz());
    }
}

TEST(Node, RatioAboveNominalRequestsTurbo) {
    // A request one ratio above nominal is the turbo request: a single
    // active compute core runs above the 2.5 GHz nominal clock.
    Node node;
    node.set_workload(0, &workloads::compute(), 1);
    node.set_pstate(0, Frequency::from_ratio(node.sku().nominal_frequency.ratio() + 1));
    node.run_for(Time::ms(2));
    EXPECT_GT(node.core_frequency(0).as_ghz(), 2.5);
}

TEST(Node, MinimumRatioRequestHoldsComputeAtMinimum) {
    Node node;
    node.set_workload(0, &workloads::compute(), 1);
    node.set_pstate(0, node.sku().min_frequency);
    node.run_for(Time::ms(2));
    EXPECT_DOUBLE_EQ(node.core_frequency(0).as_ghz(), 1.2);
}

TEST(Node, PerfCtlHoldsTheRequestBeforeTheGrant) {
    // The FTaLaT pitfall (Section VI-A): right after a request,
    // IA32_PERF_CTL already holds the target although the hardware has not
    // switched. Counting cycles over a busy-wait window shows the real clock.
    Node node;
    node.set_workload(0, &workloads::while_one(), 1);
    node.set_pstate(0, Frequency::ghz(1.2));
    node.run_for(Time::ms(2));

    node.set_pstate(0, Frequency::ghz(2.0));
    EXPECT_EQ((node.msrs().read(0, msr::IA32_PERF_CTL) >> 8) & 0xFF, 20u);
    EXPECT_DOUBLE_EQ(node.core_frequency(0).as_ghz(), 1.2);

    const auto cycles_ghz = [&node] {
        const auto c0 = node.msrs().read(0, msr::IA32_FIXED_CTR1);
        node.run_for(Time::us(20));
        return static_cast<double>(node.msrs().read(0, msr::IA32_FIXED_CTR1) - c0) /
               20e3;
    };
    EXPECT_NEAR(cycles_ghz(), 1.2, 0.06);
    node.run_for(Time::ms(2));
    EXPECT_NEAR(cycles_ghz(), 2.0, 0.06);
}

TEST(Node, MperfCountsAtNominalWhileRunning) {
    Node node;
    node.set_workload(0, &workloads::while_one(), 1);
    node.set_pstate(0, Frequency::ghz(1.2));
    node.run_for(Time::ms(2));
    const auto m0 = node.msrs().read(0, msr::IA32_MPERF);
    const auto a0 = node.msrs().read(0, msr::IA32_APERF);
    node.run_for(Time::ms(10));
    const auto dm = node.msrs().read(0, msr::IA32_MPERF) - m0;
    const auto da = node.msrs().read(0, msr::IA32_APERF) - a0;
    // APERF/MPERF ratio = actual/nominal = 1.2/2.5.
    EXPECT_NEAR(static_cast<double>(da) / static_cast<double>(dm), 1.2 / 2.5, 0.01);
}

TEST(Node, EpbWritesReachTheSocketPolicy) {
    Node node;
    node.set_epb(msr::EpbPolicy::Performance);
    EXPECT_EQ(node.socket(0).epb(), msr::EpbPolicy::Performance);
    EXPECT_EQ(node.socket(1).epb(), msr::EpbPolicy::Performance);
    EXPECT_EQ(node.msrs().read(0, msr::IA32_ENERGY_PERF_BIAS), 0u);
    node.msrs().write(13, msr::IA32_ENERGY_PERF_BIAS, 15);
    EXPECT_EQ(node.socket(1).epb(), msr::EpbPolicy::EnergySaving);
    EXPECT_EQ(node.socket(0).epb(), msr::EpbPolicy::Performance);
}

TEST(Node, UncoreCounterTracksUncoreClock) {
    Node node;
    node.set_workload(0, &workloads::while_one(), 1);
    node.set_pstate_all(Frequency::ghz(2.0));
    node.run_for(Time::ms(5));
    const auto u0 = node.msrs().read(0, msr::U_MSR_PMON_UCLK_FIXED_CTR);
    node.run_for(Time::sec(1));
    const auto u1 = node.msrs().read(0, msr::U_MSR_PMON_UCLK_FIXED_CTR);
    const double ghz = static_cast<double>(u1 - u0) * 1e-9;
    EXPECT_NEAR(ghz, 1.75, 0.02);  // Table III: 2.0 GHz core -> 1.75 uncore
}

TEST(Node, TraceRecordsPstateLifecycle) {
    NodeConfig cfg;
    cfg.trace_enabled = true;
    Node node{cfg};
    node.set_workload(0, &workloads::while_one(), 1);
    node.run_for(Time::ms(2));
    node.trace().clear();
    node.set_pstate(0, Frequency::ghz(1.3));
    node.run_for(Time::ms(2));
    EXPECT_FALSE(node.trace().filter("pstate", "cpu0").empty());
    EXPECT_FALSE(node.trace().filter("pcu", "socket0").empty());
}

TEST(Node, UnknownMsrFaults) {
    Node node;
    EXPECT_THROW((void)node.msrs().read(0, 0x123), msr::MsrError);
}

TEST(Node, SingleSocketConfig) {
    NodeConfig cfg;
    cfg.sockets = 1;
    Node node{cfg};
    EXPECT_EQ(node.cpu_count(), 12u);
    node.set_workload(0, &workloads::compute(), 1);
    node.run_for(Time::ms(10));
    EXPECT_GT(node.msrs().read(0, msr::IA32_FIXED_CTR0), 0u);
}

TEST(Node, EighteenCoreSkuWorks) {
    NodeConfig cfg;
    cfg.sku = &arch::xeon_e5_2699_v3();
    Node node{cfg};
    EXPECT_EQ(node.cores_per_socket(), 18u);
    node.set_all_workloads(&workloads::compute(), 1);
    node.run_for(Time::ms(10));
    EXPECT_GT(node.msrs().read(17, msr::IA32_FIXED_CTR0), 0u);
}

// Socket::any_core_active() reads a count that run_workload, park and wake
// keep; it must agree with the cores' states after every one of them,
// including a wake of a running core and a park of a parked one.
TEST(Node, ActiveCoreCountMatchesCoreStates) {
    Node node;
    Socket& socket = node.socket(1);
    auto scan = [&socket] {
        return std::any_of(socket.cores().begin(), socket.cores().end(),
                           [](const SimCore& c) { return c.state == cstates::CState::C0; });
    };
    ASSERT_FALSE(socket.any_core_active());
    socket.run_workload(4, &workloads::compute(), 1);
    EXPECT_TRUE(socket.any_core_active());
    socket.wake(4);  // already running
    EXPECT_TRUE(socket.any_core_active());
    socket.park(4, cstates::CState::C6);
    EXPECT_FALSE(socket.any_core_active());
    socket.park(4, cstates::CState::C3);  // already parked
    EXPECT_FALSE(socket.any_core_active());
    socket.wake(4);
    EXPECT_TRUE(socket.any_core_active());
    socket.park(4, cstates::CState::C1);
    EXPECT_FALSE(socket.any_core_active());

    constexpr std::array kStates{cstates::CState::C0, cstates::CState::C1,
                                 cstates::CState::C3, cstates::CState::C6};
    // Three cores, parked half the time, so the socket goes idle often.
    util::Rng rng{0xAC7};
    unsigned idle = 0;
    for (int op = 0; op < 2000; ++op) {
        const auto core = static_cast<unsigned>(rng.uniform_u64(3));
        switch (rng.uniform_u64(4)) {
            case 0:
                socket.run_workload(core, &workloads::firestarter(),
                                    1 + static_cast<unsigned>(rng.uniform_u64(2)));
                break;
            case 3: socket.wake(core); break;
            default: socket.park(core, kStates[rng.uniform_u64(kStates.size())]); break;
        }
        ASSERT_EQ(socket.any_core_active(), scan()) << "after operation " << op;
        idle += scan() ? 0 : 1;
    }
    EXPECT_GT(idle, 20u);
}

}  // namespace
}  // namespace hsw::core
