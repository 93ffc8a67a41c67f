// SHA-256 (FIPS 180-4), self-contained.
//
// The engine content-addresses experiment results: the cache key is the
// digest of an ExperimentSpec's canonical serialization (plus the code
// version salt), and every cache entry carries the digest of its payload so
// truncation or bit rot reads as a miss instead of poisoning a survey run.
//
// Two compression kernels compute the same function. The portable one is
// plain C++ and runs everywhere. On x86 CPUs whose CPUID reports the SHA
// extensions and SSE4.1, a second kernel built on sha256rnds2/sha256msg1/
// sha256msg2 compresses a block in a quarter of the time or less. The choice
// is made once, from CPUID, at the first hash; no option or setting
// overrides it. The portable kernel is the only one elsewhere, and the
// reference the tests hold the other to (sha256_portable).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace hsw::engine {

using Sha256Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256: update() with the message in any number of
/// pieces, then final() once. The digest equals sha256() of the
/// concatenated pieces; nothing is copied beyond one pending block.
class Sha256 {
public:
    Sha256();

    Sha256& update(std::string_view data) {
        if (data.size() < kBlockBytes - pending_) {
            // Fits in the pending block: the common case for short fields.
            if (!data.empty()) std::memcpy(block_.data() + pending_, data.data(), data.size());
            pending_ += data.size();
            return *this;
        }
        return update_blocks(data);
    }

    /// Pads, compresses the tail and returns the digest. The hasher is
    /// spent afterwards.
    [[nodiscard]] Sha256Digest final();

private:
    using Compress = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                              std::size_t count);
    static constexpr std::size_t kBlockBytes = 64;

    explicit Sha256(Compress compress) : compress_{compress} {}
    Sha256& update_blocks(std::string_view data);
    friend Sha256Digest sha256_portable(std::string_view data);

    Compress compress_;
    std::array<std::uint32_t, 8> state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                           0xa54ff53a, 0x510e527f, 0x9b05688c,
                                           0x1f83d9ab, 0x5be0cd19};
    std::array<std::uint8_t, kBlockBytes> block_{};
    std::size_t pending_ = 0;       // bytes of block_ not yet compressed
    std::uint64_t compressed_ = 0;  // message bytes already compressed
};

[[nodiscard]] Sha256Digest sha256(std::string_view data);

/// The same digest computed by the portable kernel whatever the CPU: the
/// reference the dispatched kernel is tested against.
[[nodiscard]] Sha256Digest sha256_portable(std::string_view data);

/// The kernel sha256() and Sha256 run on this CPU: "sha-ni" or "portable".
[[nodiscard]] std::string_view sha256_kernel();

/// Lowercase hex rendering (64 chars).
[[nodiscard]] std::string hex(const Sha256Digest& digest);

[[nodiscard]] std::string sha256_hex(std::string_view data);

/// First eight digest bytes as a big-endian integer (for seed derivation).
[[nodiscard]] std::uint64_t digest_prefix64(const Sha256Digest& digest);

}  // namespace hsw::engine
