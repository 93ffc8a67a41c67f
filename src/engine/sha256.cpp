#include "engine/sha256.hpp"

#include <bit>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define HSW_SHA256_SHA_NI 1
#endif

namespace hsw::engine {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

void compress_portable(std::uint32_t* state, const std::uint8_t* blocks,
                       std::size_t count) {
    for (; count > 0; --count, blocks += 64) {
        std::array<std::uint32_t, 64> w{};
        for (unsigned i = 0; i < 16; ++i) {
            w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
                   (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
                   (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
                   static_cast<std::uint32_t>(blocks[4 * i + 3]);
        }
        for (unsigned i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 =
                std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
        for (unsigned i = 0; i < 64; ++i) {
            const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
            const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }
        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(HSW_SHA256_SHA_NI)

// The SHA extensions keep the eight state words as two halves, ABEF and
// CDGH (highest lane first), and sha256rnds2 runs two rounds on the low
// two lanes of a message-plus-constant vector.
__attribute__((target("sha,sse4.1"))) inline void sha_ni_rounds4(
    __m128i& abef, __m128i& cdgh, __m128i w, const std::uint32_t* k) {
    const __m128i wk =
        _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
    // The first call's result is the new ABEF; the old ABEF becomes CDGH.
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t count) {
    // Message words are big-endian; this shuffle swaps each word's bytes.
    const __m128i byteswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
    const __m128i cdab = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
    const __m128i efgh = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for (; count > 0; --count, blocks += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        const auto* in = reinterpret_cast<const __m128i*>(blocks);
        __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in), byteswap);
        __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), byteswap);
        __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), byteswap);
        __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), byteswap);
        // Rounds 0-47; each group of four also schedules the message
        // words sixteen rounds on: W[t-16] + s0(W[t-15]) (msg1), + W[t-7]
        // (alignr), + s1(W[t-2]) (msg2).
        for (std::size_t round = 0; round < 48; round += 4) {
            sha_ni_rounds4(abef, cdgh, w0, kRoundConstants.data() + round);
            const __m128i w4 = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
                w3);
            w0 = w1;
            w1 = w2;
            w2 = w3;
            w3 = w4;
        }
        sha_ni_rounds4(abef, cdgh, w0, kRoundConstants.data() + 48);
        sha_ni_rounds4(abef, cdgh, w1, kRoundConstants.data() + 52);
        sha_ni_rounds4(abef, cdgh, w2, kRoundConstants.data() + 56);
        sha_ni_rounds4(abef, cdgh, w3, kRoundConstants.data() + 60);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_ni() {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || (ecx & bit_SSE4_1) == 0) {
        return false;
    }
    return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 && (ebx & bit_SHA) != 0;
}

#endif  // HSW_SHA256_SHA_NI

struct Kernel {
    decltype(&compress_portable) compress;
    std::string_view name;
};

const Kernel& dispatched_kernel() {
    static const Kernel kernel = [] {
#if defined(HSW_SHA256_SHA_NI)
        if (cpu_has_sha_ni()) return Kernel{compress_sha_ni, "sha-ni"};
#endif
        return Kernel{compress_portable, "portable"};
    }();
    return kernel;
}

}  // namespace

Sha256::Sha256() : compress_{dispatched_kernel().compress} {}

Sha256& Sha256::update_blocks(std::string_view data) {
    // Called with at least enough bytes to fill the pending block.
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(data.data());
    std::size_t size = data.size();
    if (pending_ > 0) {
        const std::size_t fill = kBlockBytes - pending_;
        std::memcpy(block_.data() + pending_, bytes, fill);
        compress_(state_.data(), block_.data(), 1);
        compressed_ += kBlockBytes;
        bytes += fill;
        size -= fill;
    }
    const std::size_t whole = size / kBlockBytes;
    if (whole > 0) {
        compress_(state_.data(), bytes, whole);
        compressed_ += whole * kBlockBytes;
        bytes += whole * kBlockBytes;
        size -= whole * kBlockBytes;
    }
    if (size > 0) std::memcpy(block_.data(), bytes, size);
    pending_ = size;
    return *this;
}

Sha256Digest Sha256::final() {
    // Final block(s): message tail, 0x80, zero padding, 64-bit bit length.
    std::array<std::uint8_t, 2 * kBlockBytes> tail{};
    std::memcpy(tail.data(), block_.data(), pending_);
    tail[pending_] = 0x80;
    const std::size_t tail_blocks = pending_ + 1 + 8 <= kBlockBytes ? 1 : 2;
    const std::uint64_t bit_length = (compressed_ + pending_) * 8;
    for (unsigned i = 0; i < 8; ++i) {
        tail[tail_blocks * kBlockBytes - 1 - i] =
            static_cast<std::uint8_t>(bit_length >> (8 * i));
    }
    compress_(state_.data(), tail.data(), tail_blocks);

    Sha256Digest digest{};
    for (unsigned i = 0; i < 8; ++i) {
        digest[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
        digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return digest;
}

Sha256Digest sha256(std::string_view data) { return Sha256{}.update(data).final(); }

Sha256Digest sha256_portable(std::string_view data) {
    return Sha256{compress_portable}.update(data).final();
}

std::string_view sha256_kernel() { return dispatched_kernel().name; }

std::string hex(const Sha256Digest& digest) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out(2 * digest.size(), '\0');
    char* p = out.data();
    for (const std::uint8_t b : digest) {
        *p++ = kHex[b >> 4];
        *p++ = kHex[b & 0xF];
    }
    return out;
}

std::string sha256_hex(std::string_view data) { return hex(sha256(data)); }

std::uint64_t digest_prefix64(const Sha256Digest& digest) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i) v = (v << 8) | digest[i];
    return v;
}

}  // namespace hsw::engine
