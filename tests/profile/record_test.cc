// The checked record reader: one error format naming schema and path,
// integer reads that refuse NaN, fractions and out-of-range values before
// converting, optional members with fallbacks, and closed objects.
#include "profile/record.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/error.h"
#include "profile/json.h"

namespace ksum::profile {
namespace {

// The message `read` throws, or "" when it does not throw.
template <class Read>
std::string error_of(const Read& read) {
  try {
    read();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

const Json& sample() {
  static const Json doc = Json::parse(
      R"({"name":"x","count":3,"flag":true,"rows":[{"v":1.5},{"v":"two"}]})");
  return doc;
}

TEST(RecordReaderTest, ErrorsNameSchemaAndPath) {
  const Reader r(sample(), "test-v1");
  EXPECT_EQ(error_of([&] { (void)r.member("missing"); }),
            "test-v1: missing: missing");
  EXPECT_EQ(error_of([&] { (void)r.member("name").number(); }),
            "test-v1: name: must be a number");
  EXPECT_EQ(error_of([&] { (void)r.member("rows").at(1).member("v").number(); }),
            "test-v1: rows[1].v: must be a number");
  EXPECT_EQ(error_of([&] { (void)r.member("rows").at(2); }),
            "test-v1: rows: has no element 2");
  EXPECT_EQ(error_of([&] { (void)r.member("count").member("x"); }),
            "test-v1: count: must be an object");
  EXPECT_EQ(error_of([&] { (void)r.member("flag").size(); }),
            "test-v1: flag: must be an array");
  EXPECT_EQ(error_of([&] { r.fail("bad"); }), "test-v1: record: bad");
  EXPECT_EQ(r.member("rows").at(0).member("v").number(), 1.5);
  EXPECT_EQ(r.member("name").string(), "x");
  EXPECT_TRUE(r.member("flag").boolean());
}

TEST(RecordReaderTest, IntegersAreCheckedBeforeConversion) {
  const auto read_int = [](double v) {
    const Json doc = Json::object().set("v", v);
    return error_of(
        [&] { (void)Reader(doc, "t").member("v").integer<int>(); });
  };
  EXPECT_EQ(read_int(2147483647.0), "");
  EXPECT_EQ(read_int(-2147483648.0), "");
  EXPECT_EQ(read_int(2147483648.0),
            "t: v: must be an integer in [-2147483648, 2147483647]");
  EXPECT_NE(read_int(-2147483649.0), "");
  EXPECT_NE(read_int(2.5), "");
  EXPECT_NE(read_int(1e12), "");
  EXPECT_NE(read_int(std::numeric_limits<double>::quiet_NaN()), "");

  const auto read_u64 = [](double v) {
    const Json doc = Json::object().set("v", v);
    return error_of(
        [&] { (void)Reader(doc, "t").member("v").integer<std::uint64_t>(); });
  };
  EXPECT_EQ(read_u64(9007199254740992.0), "");  // 2^53
  EXPECT_EQ(read_u64(0.0), "");
  EXPECT_NE(read_u64(-1.0), "");
  EXPECT_NE(read_u64(18446744073709551616.0), "");  // 2^64
  EXPECT_NE(read_u64(1e30), "");
}

TEST(RecordReaderTest, OptionalMembersTakeTheirFallback) {
  const Reader r(sample(), "t");
  EXPECT_EQ(r.value_or("absent", 7.5), 7.5);
  EXPECT_EQ(r.value_or("count", 9), 3);
  EXPECT_EQ(r.value_or("absent", 9), 9);
  EXPECT_FALSE(r.value_or("absent", false));
  EXPECT_TRUE(r.value_or("flag", false));
  EXPECT_FALSE(r.find("absent").has_value());
  // A present member must still have the right type.
  EXPECT_EQ(error_of([&] { (void)r.value_or("name", 0.0); }),
            "t: name: must be a number");
  EXPECT_EQ(error_of([&] { (void)r.value_or<std::uint64_t>("count", 0); }),
            "");
}

struct Pair {
  int a = 0;
  double b = 0;
};
constexpr Field<Pair> kPairFields[] = {{"a", &Pair::a}, {"b", &Pair::b}};
constexpr Pair kPair{4, 0.25};

TEST(RecordReaderTest, ClosedRejectsUnknownKeysAndTablesRoundTrip) {
  Json doc = Json::object();
  doc.set("id", "p");
  write(doc, kPair, kPairFields);
  EXPECT_EQ(doc.dump_compact(), R"({"id":"p","a":4,"b":0.25})");

  const Reader r(doc, "t");
  EXPECT_EQ(error_of([&] { r.closed({"id"}, kPairFields); }), "");
  EXPECT_EQ(error_of([&] { r.closed({"id"}); }), "t: a: unknown key");
  Pair back;
  read(r, back, kPairFields);
  EXPECT_EQ(back.a, 4);
  EXPECT_EQ(back.b, 0.25);
}

}  // namespace
}  // namespace ksum::profile
