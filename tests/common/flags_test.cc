#include "common/flags.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace ksum {
namespace {

FlagParser make_parser() {
  FlagParser flags;
  flags.declare("m", "rows")
      .declare("h", "bandwidth")
      .declare("name", "label")
      .declare("verify", "check results", /*takes_value=*/false);
  return flags;
}

TEST(FlagsTest, EqualsSyntax) {
  auto flags = make_parser();
  const char* argv[] = {"prog", "--m=128", "--h=0.5", "--name=abc"};
  flags.parse(4, argv);
  EXPECT_EQ(flags.get_size("m", 0), 128u);
  EXPECT_DOUBLE_EQ(flags.get_double("h", 0), 0.5);
  EXPECT_EQ(flags.get_string("name", ""), "abc");
}

TEST(FlagsTest, SpaceSyntax) {
  auto flags = make_parser();
  const char* argv[] = {"prog", "--m", "256"};
  flags.parse(3, argv);
  EXPECT_EQ(flags.get_size("m", 0), 256u);
}

TEST(FlagsTest, BooleanSwitch) {
  auto flags = make_parser();
  const char* argv[] = {"prog", "--verify"};
  flags.parse(2, argv);
  EXPECT_TRUE(flags.get_bool("verify"));
  auto flags2 = make_parser();
  const char* argv2[] = {"prog"};
  flags2.parse(1, argv2);
  EXPECT_FALSE(flags2.get_bool("verify"));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  auto flags = make_parser();
  const char* argv[] = {"prog"};
  flags.parse(1, argv);
  EXPECT_EQ(flags.get_size("m", 42), 42u);
  EXPECT_EQ(flags.get_string("name", "dflt"), "dflt");
  EXPECT_FALSE(flags.has("m"));
}

TEST(FlagsTest, UnknownFlagThrows) {
  auto flags = make_parser();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(flags.parse(2, argv), Error);
}

TEST(FlagsTest, MissingValueThrows) {
  auto flags = make_parser();
  const char* argv[] = {"prog", "--m"};
  EXPECT_THROW(flags.parse(2, argv), Error);
}

TEST(FlagsTest, NonNumericValueThrows) {
  auto flags = make_parser();
  const char* argv[] = {"prog", "--m=abc"};
  flags.parse(2, argv);
  EXPECT_THROW(flags.get_size("m", 0), Error);
}

TEST(FlagsTest, PositionalArguments) {
  auto flags = make_parser();
  const char* argv[] = {"prog", "first", "--m=1", "second"};
  flags.parse(4, argv);
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "first");
  EXPECT_EQ(flags.positional()[1], "second");
}

TEST(FlagsTest, ParseOffset) {
  auto flags = make_parser();
  const char* argv[] = {"prog", "subcmd", "--m=7"};
  flags.parse(3, argv, /*first=*/2);
  EXPECT_EQ(flags.get_size("m", 0), 7u);
  EXPECT_TRUE(flags.positional().empty());
}

TEST(FlagsTest, DuplicateDeclarationThrows) {
  FlagParser flags;
  flags.declare("x", "help");
  EXPECT_THROW(flags.declare("x", "again"), Error);
}

TEST(FlagsTest, UsageListsFlags) {
  const auto flags = make_parser();
  const std::string usage = flags.usage();
  EXPECT_NE(usage.find("--m=<value>"), std::string::npos);
  EXPECT_NE(usage.find("--verify\n"), std::string::npos);
  EXPECT_NE(usage.find("bandwidth"), std::string::npos);
}

TEST(FlagsTest, QueryingUndeclaredFlagThrows) {
  auto flags = make_parser();
  const char* argv[] = {"prog"};
  flags.parse(1, argv);
  EXPECT_THROW(flags.get_bool("nope"), Error);
  EXPECT_THROW((void)flags.has("nope"), Error);
  EXPECT_FALSE(flags.declared("nope"));
  EXPECT_TRUE(flags.declared("m"));
}

}  // namespace
}  // namespace ksum
