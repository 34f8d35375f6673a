// Strict number parsers (util/parse.h): whole-string, plain decimal, no
// leading whitespace or '+', and a sign only where the type has one.
#include "util/parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace nowsched::util {
namespace {

TEST(StrictParse, AcceptsPlainDecimals) {
  EXPECT_EQ(parse_int64("7"), 7);
  EXPECT_EQ(parse_int64("-7"), -7);
  EXPECT_EQ(parse_int64("0"), 0);
  EXPECT_EQ(parse_int64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parse_uint64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_uint64("3"), 3u);
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("-0.25"), -0.25);
  EXPECT_EQ(parse_double("1e3"), 1000.0);
}

TEST(StrictParse, LeadingZerosAndNegativeZero) {
  // A digit first is all the gate asks; leading zeros stay plain decimal
  // (no octal), and "-0" is a valid signed zero.
  EXPECT_EQ(parse_int64("007"), 7);
  EXPECT_EQ(parse_int64("-007"), -7);
  EXPECT_EQ(parse_int64("-0"), 0);
  EXPECT_EQ(parse_uint64("010"), 10u);
  EXPECT_EQ(parse_double("00.5"), 0.5);
  EXPECT_EQ(parse_double("-0"), 0.0);
}

TEST(StrictParse, RejectsLeadingWhitespace) {
  for (const std::string s : {" 7", "\t7", "\n7", " -7"}) {
    EXPECT_FALSE(parse_int64(s).has_value()) << "'" << s << "'";
    EXPECT_FALSE(parse_double(s).has_value()) << "'" << s << "'";
  }
  EXPECT_FALSE(parse_uint64(" 3").has_value());
  EXPECT_FALSE(parse_double(" 1.5").has_value());
}

TEST(StrictParse, RejectsPlusSign) {
  EXPECT_FALSE(parse_int64("+3").has_value());
  EXPECT_FALSE(parse_uint64("+3").has_value());
  EXPECT_FALSE(parse_double("+1.5").has_value());
}

TEST(StrictParse, UnsignedSignGuardCannotBeBypassed) {
  // strtoull skips the whitespace and wraps the negation: " -1" used to
  // decode as 2^64 − 1.
  for (const std::string s : {"-1", " -1", "\t-1", "+-1", "-0"}) {
    EXPECT_FALSE(parse_uint64(s).has_value()) << "'" << s << "'";
  }
}

TEST(StrictParse, RejectsMalformedSignsAndNonDigitStarts) {
  for (const std::string s : {"", "-", "--1", "-+1", "- 1", ".5", "-.5", "x1",
                              "inf", "nan", "-inf"}) {
    EXPECT_FALSE(parse_int64(s).has_value()) << "'" << s << "'";
    EXPECT_FALSE(parse_uint64(s).has_value()) << "'" << s << "'";
    EXPECT_FALSE(parse_double(s).has_value()) << "'" << s << "'";
  }
}

TEST(StrictParse, RejectsTrailingJunkAndOverflow) {
  EXPECT_FALSE(parse_int64("7 ").has_value());
  EXPECT_FALSE(parse_int64("12abc").has_value());
  EXPECT_FALSE(parse_int64("9223372036854775808").has_value());
  EXPECT_FALSE(parse_uint64("18446744073709551616").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("1e999").has_value());
}

}  // namespace
}  // namespace nowsched::util
