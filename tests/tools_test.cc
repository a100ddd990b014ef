#include "tools/flag_parser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace ratel::tools {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return FlagParser(static_cast<int>(args.size()),
                    const_cast<char**>(args.data()));
}

TEST(FlagParserTest, EqualsAndSpaceSyntax) {
  const FlagParser f = Parse({"--model=13B", "--mem", "256"});
  EXPECT_EQ(f.GetString("model"), "13B");
  EXPECT_EQ(f.GetInt("mem"), 256);
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  const FlagParser f = Parse({});
  EXPECT_EQ(f.GetString("model", "6B"), "6B");
  EXPECT_EQ(f.GetInt("mem", 128), 128);
  EXPECT_FALSE(f.GetBool("json"));
  EXPECT_FALSE(f.Has("anything"));
}

TEST(FlagParserTest, BareFlagIsTrue) {
  const FlagParser f = Parse({"--json", "--trace"});
  EXPECT_TRUE(f.GetBool("json"));
  EXPECT_TRUE(f.GetBool("trace"));
  EXPECT_TRUE(f.Has("json"));
}

TEST(FlagParserTest, ExplicitFalse) {
  const FlagParser f = Parse({"--json=false", "--trace=0"});
  EXPECT_FALSE(f.GetBool("json", true));
  EXPECT_FALSE(f.GetBool("trace", true));
}

TEST(FlagParserTest, BareFlagBeforeAnotherFlag) {
  // "--json --mem 64": --json must not swallow "--mem".
  const FlagParser f = Parse({"--json", "--mem", "64"});
  EXPECT_TRUE(f.GetBool("json"));
  EXPECT_EQ(f.GetInt("mem"), 64);
}

TEST(FlagParserTest, PositionalArgumentsPreserved) {
  const FlagParser f = Parse({"input.txt", "--mem=1", "other"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "other");
}

TEST(FlagParserTest, ParseIntTakesOnlyAWholeIntegerInRange) {
  EXPECT_EQ(ParseInt("12", 0, 100), 12);
  EXPECT_EQ(ParseInt("-3", -5, 5), -3);
  EXPECT_EQ(ParseInt("0", 0, 0), 0);
  for (const char* bad : {"abc", "twelve", "12x", " 12", "12 ", "+12", "",
                          "0x10", "1e3", "-"}) {
    EXPECT_FALSE(ParseInt(bad, INT64_MIN, INT64_MAX).has_value())
        << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseInt("101", 0, 100).has_value());
  EXPECT_FALSE(ParseInt("-1", 0, 100).has_value());
  EXPECT_FALSE(ParseInt("99999999999999999999", INT64_MIN, INT64_MAX)
                   .has_value());
}

TEST(FlagParserDeathTest, MalformedIntFlagExitsNamingTheFlag) {
  const FlagParser f = Parse({"--ssds=twelve", "--mem", "abc"});
  EXPECT_EXIT(f.GetInt("ssds", 12), ::testing::ExitedWithCode(2),
              "invalid --ssds 'twelve'");
  EXPECT_EXIT(f.GetInt("mem", 256), ::testing::ExitedWithCode(2),
              "invalid --mem 'abc'");
  // An int flag holds an int: a value past INT_MAX is malformed too.
  const FlagParser big = Parse({"--batch=4294967296"});
  EXPECT_EXIT(big.GetInt("batch", 1), ::testing::ExitedWithCode(2),
              "invalid --batch");
}

TEST(FlagParserDeathTest, MalformedPositionalNumberExits) {
  EXPECT_EXIT(ParseIntOrExit("steps", "abc", 0, 100),
              ::testing::ExitedWithCode(2),
              "invalid steps 'abc': expected an integer in \\[0, 100\\]");
}

}  // namespace
}  // namespace ratel::tools
