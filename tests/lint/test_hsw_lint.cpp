// hsw_lint behaves exactly as documented: each fixture violates one rule,
// the clean and suppressed fixtures pass, and the real tree stays clean
// (that last part is the separate hsw_lint.tree ctest).
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hsw_lint/lint.hpp"

namespace {

using hsw::lint::Catalog;
using hsw::lint::Finding;
using hsw::lint::lint_file;
using hsw::lint::lint_tree;

// Set by CMake to tests/lint_fixtures in the source tree.
const char* const kFixtures = HSW_LINT_FIXTURES_DIR;

std::vector<Finding> fixture_findings() {
    static const auto result = lint_tree({kFixtures});
    return result.findings;
}

std::vector<Finding> findings_for(const std::string& file_suffix) {
    std::vector<Finding> out;
    for (const auto& f : fixture_findings()) {
        if (f.path.size() >= file_suffix.size() &&
            f.path.compare(f.path.size() - file_suffix.size(), file_suffix.size(),
                           file_suffix) == 0) {
            out.push_back(f);
        }
    }
    return out;
}

TEST(HswLint, FixtureTreeScansAllFiles) {
    const auto result = lint_tree({kFixtures});
    // 17 .cpp fixtures + the fixture catalog header.
    EXPECT_EQ(result.files_scanned, 18u);
}

TEST(HswLint, WallClockInSimFires) {
    const auto found = findings_for("sim/wallclock_violation.cpp");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "determinism-wallclock");
    EXPECT_EQ(found[0].line, 7);
}

TEST(HswLint, RawRngInSimFires) {
    const auto found = findings_for("sim/rng_violation.cpp");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "determinism-rng");
    EXPECT_EQ(found[0].line, 7);
}

TEST(HswLint, RawSeedRngConstructionInEngineFires) {
    const auto found = findings_for("engine/rng_construct_violation.cpp");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "engine-rng-derive");
    EXPECT_EQ(found[0].line, 7);
}

TEST(HswLint, AllocationInsideHotRegionFires) {
    const auto found = findings_for("engine/hot_alloc_violation.cpp");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "hot-path-alloc");
    EXPECT_EQ(found[0].line, 8);
    // The identical call outside the region (line 14) stayed clean.
}

TEST(HswLint, BlockingSocketCallOnReactorThreadFires) {
    const auto found = findings_for("service/reactor_blocking_violation.cpp");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "reactor-blocking");
    EXPECT_EQ(found[0].line, 10);
    // The allow()-suppressed call on line 13 and the acceptor-thread call
    // outside the region (line 18) both stayed clean.
}

TEST(HswLint, ReactorRegionRuleInlineOnSyntheticSource) {
    // The region markers live in comments, the tokens in code; read_frame
    // (the blocking frame helper) fires, epoll_wait does not.
    const std::string content =
        "// hsw:reactor-thread\n"
        "void loop() { epoll_wait(1, nullptr, 0, -1); read_frame(3); }\n"
        "// hsw:end-reactor-thread\n"
        "void outside() { read_frame(3); }\n";
    const auto found = lint_file("src/service/r.cpp", content, Catalog{});
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "reactor-blocking");
    EXPECT_EQ(found[0].line, 2);
}

TEST(HswLint, PipelinedCallHalvesAndBurstReadsBlockOnSyntheticSource) {
    // The two halves of a pipelined upstream call and the burst reader's
    // read wait for the peer: each fires on a reactor thread and under a
    // lock, and stays clean outside both.
    const std::string reactor =
        "// hsw:reactor-thread\n"
        "void loop() { lease.send_batch(g); }\n"
        "void gather() { auto r = lease.receive_batch(); }\n"
        "void read() { auto f = reader.next_frame(); }\n"
        "// hsw:end-reactor-thread\n"
        "void outside() { lease.send_batch(g); reader.next_frame(); }\n";
    const auto on_reactor = lint_file("src/router/r.cpp", reactor, Catalog{});
    ASSERT_EQ(on_reactor.size(), 3u);
    for (std::size_t i = 0; i < on_reactor.size(); ++i) {
        EXPECT_EQ(on_reactor[i].rule, "reactor-blocking");
        EXPECT_EQ(on_reactor[i].line, static_cast<int>(i) + 2);
    }
    const std::string locked =
        "void f() {\n"
        "    util::LockGuard lock{mu};\n"
        "    auto r = lease.receive_batch();\n"
        "}\n";
    const auto under_lock = lint_file("src/router/l.cpp", locked, Catalog{});
    ASSERT_EQ(under_lock.size(), 1u);
    EXPECT_EQ(under_lock[0].rule, "lock-across-io");
    EXPECT_EQ(under_lock[0].line, 3);
}

TEST(HswLint, SharedLockGuardCountsForLockAcrossIo) {
    const std::string content =
        "void f() {\n"
        "    util::SharedLockGuard lock{mu};\n"
        "    printf(\"x\");\n"
        "}\n";
    const auto found = lint_file("src/service/g.cpp", content, Catalog{});
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "lock-across-io");
    EXPECT_EQ(found[0].line, 3);
}

TEST(HswLint, IoUnderLockGuardFires) {
    const auto found = findings_for("service/lock_io_violation.cpp");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "lock-across-io");
    EXPECT_EQ(found[0].line, 12);
    // fclose() after lock.unlock() and the second function's fopen() after
    // the guard's scope closed are both clean.
}

TEST(HswLint, LayeringViolationsFirePerInclude) {
    const auto found = findings_for("sim/layering_violation.cpp");
    ASSERT_EQ(found.size(), 2u);
    EXPECT_EQ(found[0].rule, "include-layering");
    EXPECT_EQ(found[1].rule, "include-layering");
}

TEST(HswLint, RouterReachingBelowServiceFires) {
    const auto found = findings_for("router/layering_violation.cpp");
    ASSERT_EQ(found.size(), 2u);
    EXPECT_EQ(found[0].rule, "include-layering");
    EXPECT_EQ(found[1].rule, "include-layering");
}

TEST(HswLint, LowerLayerIncludingRouterFires) {
    const auto found = findings_for("core/includes_router_violation.cpp");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "include-layering");
    EXPECT_EQ(found[0].line, 3);
}

TEST(HswLint, PlatformReachingUpFires) {
    const auto found = findings_for("platform/layering_violation.cpp");
    ASSERT_EQ(found.size(), 2u);
    EXPECT_EQ(found[0].rule, "include-layering");
    EXPECT_EQ(found[1].rule, "include-layering");
}

TEST(HswLint, DeviceModelIncludingPlatformFires) {
    const auto found = findings_for("rapl/includes_platform_violation.cpp");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "include-layering");
    EXPECT_EQ(found[0].line, 3);
}

TEST(HswLint, RawHwpMsrAddressesFire) {
    const auto found = findings_for("pcu/hwp_msr_violation.cpp");
    ASSERT_EQ(found.size(), 2u);
    EXPECT_EQ(found[0].rule, "msr-catalog");
    EXPECT_EQ(found[0].line, 5);
    EXPECT_EQ(found[1].rule, "msr-catalog");
    EXPECT_EQ(found[1].line, 9);
    // The non-catalog 0xFF mask stayed clean.
}

TEST(HswLint, RawMsrAddressFires) {
    const auto found = findings_for("core/msr_violation.cpp");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "msr-catalog");
    EXPECT_EQ(found[0].line, 8);
    // The same value in a string / comment and the non-catalog 0x7FFF mask
    // stayed clean.
}

TEST(HswLint, StdSyncPrimitivesFire) {
    const auto found = findings_for("obs/wrappers_violation.cpp");
    ASSERT_GE(found.size(), 2u);
    for (const auto& f : found) EXPECT_EQ(f.rule, "concurrency-wrappers");
}

TEST(HswLint, AccessLogComputedFieldNameFires) {
    const auto found = findings_for("obs/accesslog_violation.cpp");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "accesslog-literal-field");
    EXPECT_EQ(found[0].line, 11);
    // The literal call on line 10 and the declaration stayed clean.
}

TEST(HswLint, AccessLogLiteralFieldInlineOnSyntheticSource) {
    // Literal names pass; a variable name fires; the declaration (an
    // identifier precedes the call) is exempt.
    const std::string content =
        "void append_field(std::string& out, std::string_view name);\n"
        "void f(std::string& out, const char* k) {\n"
        "    append_field(out, \"us\");\n"
        "    append_field(out, k);\n"
        "}\n";
    const auto found = lint_file("src/obs/a.cpp", content, Catalog{});
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "accesslog-literal-field");
    EXPECT_EQ(found[0].line, 4);
}

TEST(HswLint, SuppressionsSilenceFindings) {
    EXPECT_TRUE(findings_for("sim/suppressed.cpp").empty());
}

TEST(HswLint, CleanFileIsClean) {
    EXPECT_TRUE(findings_for("sim/clean.cpp").empty());
}

TEST(HswLint, CatalogFileItselfIsExempt) {
    EXPECT_TRUE(findings_for("msr/addresses.hpp").empty());
}

TEST(HswLint, FormatIsPathLineRuleMessage) {
    const Finding f{"src/sim/x.cpp", 12, "determinism-rng", "no"};
    EXPECT_EQ(hsw::lint::format(f), "src/sim/x.cpp:12: [determinism-rng] no");
}

TEST(HswLint, LintFileRunsWithoutCatalog) {
    // Hex literals cannot be checked without a catalog, but every other
    // rule still runs.
    const auto found =
        lint_file("src/sim/f.cpp", "int x = std::rand();\n", Catalog{});
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "determinism-rng");
}

TEST(HswLint, TokensInStringsAndCommentsNeverFire) {
    const std::string content =
        "// std::mutex is mentioned here\n"
        "const char* s = \"std::condition_variable rand() 0x611\";\n";
    Catalog catalog;
    catalog.msr_values.insert(0x611);
    EXPECT_TRUE(lint_file("src/obs/doc.cpp", content, catalog).empty());
}

TEST(HswLint, BlockCommentsSpanLines) {
    const std::string content =
        "/* rand() inside a block comment\n"
        "   still rand() here */\n"
        "int live = std::rand();\n";
    const auto found = lint_file("src/sim/b.cpp", content, Catalog{});
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].line, 3);
}

}  // namespace
