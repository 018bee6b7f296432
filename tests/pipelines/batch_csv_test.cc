#include "pipelines/batch.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.h"

namespace ksum::pipelines {
namespace {

std::string csv_error(const std::string& text) {
  std::istringstream in(text);
  try {
    parse_batch_csv(in, BatchRequest{});
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(BatchCsvTest, EveryNumberMustBeTheWholeField) {
  // A number prefix is not a number: "128x" must not run as 128.
  EXPECT_NE(csv_error("64,64,8\n128x,128,8\n")
                .find("batch CSV line 2: malformed m '128x'"),
            std::string::npos);
  EXPECT_NE(csv_error("64,64,8,7z\n").find("line 1: malformed seed '7z'"),
            std::string::npos);
  EXPECT_NE(csv_error("64,64,8,7,0.5h\n")
                .find("line 1: malformed bandwidth '0.5h'"),
            std::string::npos);
}

TEST(BatchCsvTest, NegativeSeedIsRefusedNotWrapped) {
  EXPECT_NE(csv_error("# header comment\n64,64,8,-1\n")
                .find("batch CSV line 2: seed must be non-negative"),
            std::string::npos);
}

TEST(BatchCsvTest, BlanksAroundNumbersStillParse) {
  std::istringstream in("129, 200 ,9, 18446744073709551615 , 0.5\n");
  const auto requests = parse_batch_csv(in, BatchRequest{});
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].spec.m, 129u);
  EXPECT_EQ(requests[0].spec.n, 200u);
  EXPECT_EQ(requests[0].spec.k, 9u);
  EXPECT_EQ(requests[0].spec.seed, 18446744073709551615ull);
  EXPECT_FLOAT_EQ(requests[0].spec.bandwidth, 0.5f);
}

}  // namespace
}  // namespace ksum::pipelines
