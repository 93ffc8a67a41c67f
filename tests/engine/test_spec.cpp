#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <string_view>

#include "engine/blob.hpp"
#include "engine/spec.hpp"

namespace hsw::engine {
namespace {

TEST(Sha256, KnownVectors) {
    // FIPS 180-4 test vectors.
    EXPECT_EQ(sha256_hex(""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256_hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, LongInputCrossesBlockBoundaries) {
    // One million 'a' characters (FIPS vector), exercising the multi-block path.
    const std::string a_million(1'000'000, 'a');
    EXPECT_EQ(sha256_hex(a_million),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    // 55/56/63/64/65 bytes straddle the single- vs two-block padding split.
    for (const std::size_t n : {55u, 56u, 63u, 64u, 65u}) {
        EXPECT_EQ(sha256_hex(std::string(n, 'x')).size(), 64u);
    }
}

/// A fixed pattern over all 256 byte values, long enough for every
/// length and offset below.
std::string sha_test_bytes() {
    std::string bytes(1200, '\0');
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<char>(i * 131 + (i >> 8));
    }
    return bytes;
}

TEST(Sha256, DispatchedKernelMatchesThePortableReference) {
    // On a CPU without the SHA extensions both sides run the portable
    // kernel and the comparison proves nothing.
    if (sha256_kernel() == "portable") {
        GTEST_SKIP() << "sha256 dispatched kernel is '" << sha256_kernel()
                     << "': CPUID reports no SHA extensions here";
    }
    const std::string bytes = sha_test_bytes();
    // Every length through 1,100 bytes (the 55/56/63/64-byte padding
    // edges and up to 17 whole blocks), from four start offsets so the
    // kernel's loads are unaligned too.
    for (std::size_t offset = 0; offset < 4; ++offset) {
        for (std::size_t length = 0; length <= 1100; ++length) {
            const std::string_view data{bytes.data() + offset, length};
            ASSERT_EQ(sha256(data), sha256_portable(data))
                << "offset " << offset << ", length " << length;
        }
    }
}

TEST(Sha256, StreamingSplitsMatchOneCall) {
    const std::string bytes = sha_test_bytes();
    std::mt19937_64 rng{0x5a256};
    for (int trial = 0; trial < 2000; ++trial) {
        const std::size_t length = rng() % 1100;
        const std::string_view data{bytes.data() + rng() % 4, length};
        Sha256 streamed;
        for (std::size_t at = 0; at < length;) {
            // Piece sizes of 0..130 bytes cross the block boundary from
            // every fill level, empty updates included.
            const std::size_t piece = std::min<std::size_t>(rng() % 131, length - at);
            streamed.update(data.substr(at, piece));
            at += piece;
        }
        ASSERT_EQ(streamed.final(), sha256(data)) << "trial " << trial;
    }
    EXPECT_EQ(hex(Sha256{}.update("ab").update("").update("c").final()),
              sha256_hex("abc"));
}

TEST(Sha256, Prefix64IsBigEndianDigestHead) {
    const auto digest = sha256("abc");
    EXPECT_EQ(digest_prefix64(digest), 0xba7816bf8f01cfeaULL);
}

TEST(ExperimentSpec, CanonicalTextIsInsertionOrderIndependent) {
    ExperimentSpec a;
    a.experiment = "fig7";
    a.point = "generation=Haswell-EP";
    a.set_param("zeta", "1");
    a.set_param("alpha", "2");

    ExperimentSpec b = a;
    b = ExperimentSpec{};
    b.experiment = "fig7";
    b.point = "generation=Haswell-EP";
    b.set_param("alpha", "2");
    b.set_param("zeta", "1");

    EXPECT_EQ(a.canonical_text(), b.canonical_text());
    EXPECT_EQ(a.hash_hex(), b.hash_hex());

    // Re-setting a parameter replaces, not duplicates.
    b.set_param("alpha", "3");
    b.set_param("alpha", "2");
    EXPECT_EQ(a.canonical_text(), b.canonical_text());
}

TEST(ExperimentSpec, EveryFieldReachesTheHash) {
    ExperimentSpec base;
    base.experiment = "fig3";
    base.set_param("samples", "1000");
    const std::string h0 = base.hash_hex();

    ExperimentSpec s = base;
    s.experiment = "fig4";
    EXPECT_NE(s.hash_hex(), h0);

    s = base;
    s.point = "generation=Haswell-EP";
    EXPECT_NE(s.hash_hex(), h0);

    s = base;
    s.base_seed = 0xDEADBEEF;
    EXPECT_NE(s.hash_hex(), h0);

    s = base;
    s.audit = analysis::AuditMode::Strict;
    EXPECT_NE(s.hash_hex(), h0);

    s = base;
    s.set_param("samples", "1001");
    EXPECT_NE(s.hash_hex(), h0);
}

TEST(ExperimentSpec, JobSeedIsStableAndPointSensitive) {
    ExperimentSpec a;
    a.experiment = "table5";
    a.point = "FIRESTARTER.turbo.perf";
    EXPECT_EQ(a.job_seed(), a.job_seed());

    ExperimentSpec b = a;
    b.point = "FIRESTARTER.turbo.bal";
    EXPECT_NE(a.job_seed(), b.job_seed());

    // Not the base seed itself: jobs never consume the raw user seed.
    EXPECT_NE(a.job_seed(), a.base_seed);
}

TEST(ExperimentSpec, ParamLookup) {
    ExperimentSpec s;
    s.set_param("samples", "40");
    ASSERT_NE(s.param("samples"), nullptr);
    EXPECT_EQ(*s.param("samples"), "40");
    EXPECT_EQ(s.param("absent"), nullptr);
}

TEST(Blob, RoundTripsArbitraryBytes) {
    using namespace std::string_literals;
    // A NUL, a line that looks like a section header, and a 0xFF byte; the
    // ""s literal keeps all 15 bytes, the NUL included.
    const BlobSections sections{
        {"csv", "a,b\n1,2\n"},
        {"binary", "\x00\x01section x 3\n\xff"s},
        {"empty", ""},
    };
    const std::string packed = pack_sections(sections);
    const auto unpacked = unpack_sections(packed);
    ASSERT_TRUE(unpacked.has_value());
    EXPECT_EQ(*unpacked, sections);

    EXPECT_EQ(section(packed, "csv"), "a,b\n1,2\n");
    EXPECT_EQ(section(packed, "empty"), "");
    EXPECT_EQ(section(packed, "missing"), std::nullopt);
}

TEST(Blob, RejectsCorruption) {
    const std::string packed = pack_sections({{"csv", "payload"}});
    EXPECT_FALSE(unpack_sections("not a blob").has_value());
    EXPECT_FALSE(unpack_sections(packed.substr(0, packed.size() - 3)).has_value());
    std::string bad_length = packed;
    bad_length.replace(bad_length.find(" 7\n"), 3, " 9\n");
    EXPECT_FALSE(unpack_sections(bad_length).has_value());
}

}  // namespace
}  // namespace hsw::engine
