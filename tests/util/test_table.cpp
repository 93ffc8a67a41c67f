#include <gtest/gtest.h>

#include "util/table.hpp"

namespace hsw::util {
namespace {

TEST(Table, RendersAlignedColumns) {
    Table t{"title"};
    t.set_header({"a", "long-header"});
    t.add_row({"x", "1"});
    t.add_row({"longer-cell", "2"});
    const std::string s = t.render();
    EXPECT_NE(s.find("title"), std::string::npos);
    EXPECT_NE(s.find("| a           | long-header |"), std::string::npos);
    EXPECT_NE(s.find("| longer-cell | 2           |"), std::string::npos);
}

TEST(Table, PadsShortRows) {
    Table t;
    t.set_header({"a", "b", "c"});
    t.add_row({"1"});
    const std::string s = t.render();
    EXPECT_NE(s.find("| 1 |   |   |"), std::string::npos);
}

TEST(Table, SeparatorInsertsRule) {
    Table t;
    t.set_header({"a"});
    t.add_row({"1"});
    t.add_separator();
    t.add_row({"2"});
    const std::string s = t.render();
    // top + header rule + separator + bottom = 4 horizontal lines total
    std::size_t rules = 0;
    for (std::size_t pos = 0; (pos = s.find("+---", pos)) != std::string::npos; ++pos) {
        ++rules;
    }
    EXPECT_EQ(rules, 4u);
}

TEST(Table, FmtPrecision) {
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
    EXPECT_EQ(Table::fmt(-1.5, 1), "-1.5");
}

}  // namespace
}  // namespace hsw::util
