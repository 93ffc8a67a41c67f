#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "util/parse.hpp"

namespace hsw::util {
namespace {

TEST(ParseU64, AcceptsDecimalWithoutLeadingZerosAndShortHex) {
    const struct {
        std::string_view text;
        std::uint64_t value;
    } rows[] = {
        {"0", 0},
        {"8", 8},
        {"12648430", 0xC0FFEE},
        {"18446744073709551615", UINT64_MAX},
        {"0x0", 0},
        {"0x1f", 0x1F},
        {"0xC0FFEE", 0xC0FFEE},
        {"0xffffffffffffffff", UINT64_MAX},
    };
    for (const auto& row : rows) {
        std::uint64_t out = 0;
        EXPECT_TRUE(parse_u64(row.text, out)) << row.text;
        EXPECT_EQ(out, row.value) << row.text;
    }
}

TEST(ParseU64, RejectsEverythingElse) {
    const std::string_view rows[] = {
        "",      "010",  "00",     "-1",  "+5",   " 7",   "7 ",   "0X1f",
        "0x",    "0x-1", "0x 1",   "1e3", "12ab", "0x1g", "abc",
        "18446744073709551616",   // overflow
        "0x10000000000000000",    // 17 hex digits
        "0x00000000000000001",    // 17 digits, even with leading zeros
    };
    for (std::string_view text : rows) {
        std::uint64_t out = 0;
        EXPECT_FALSE(parse_u64(text, out)) << "'" << text << "'";
    }
}

}  // namespace
}  // namespace hsw::util
