// Strict unsigned-integer parsing for text that arrives from outside the
// process: a wire frame, a file, a command line.
#pragma once

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace hsw::util {

/// The two integer forms the project writes: a decimal without leading
/// zeros, or "0x" and 1-16 hex digits. Signs, spaces, octal, "0X" and
/// overflow are rejected rather than reinterpreted. Defined in the header
/// so the protocol's per-field calls inline.
[[nodiscard]] inline bool parse_u64(std::string_view text, std::uint64_t& out) {
    int base = 10;
    if (text.size() > 2 && text.substr(0, 2) == "0x") {
        text.remove_prefix(2);
        if (text.size() > 16) return false;
        base = 16;
    } else if (text.empty() || text[0] < '0' || text[0] > '9' ||
               (text[0] == '0' && text.size() > 1)) {
        return false;
    }
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out, base);
    return ec == std::errc{} && ptr == end;
}

}  // namespace hsw::util
