#include "common/status.h"

#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace colossal {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status status = Status::InvalidArgument("bad tau");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad tau");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad tau");

  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 42);
  EXPECT_EQ(*value, 42);
  EXPECT_TRUE(value.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> error = Status::NotFound("missing");
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(error.status().message(), "missing");
}

TEST(StatusOrTest, MovesValueOut) {
  StatusOr<std::string> value = std::string("payload");
  ASSERT_TRUE(value.ok());
  std::string moved = *std::move(value);
  EXPECT_EQ(moved, "payload");
}

TEST(StatusOrTest, DereferencingAnRvalueMovesTheValue) {
  StatusOr<std::unique_ptr<int>> value = std::make_unique<int>(7);
  ASSERT_TRUE(value.ok());
  const int* address = value->get();
  std::unique_ptr<int> moved = *std::move(value);
  EXPECT_EQ(moved.get(), address);
  EXPECT_EQ(*moved, 7);
}

TEST(StatusOrTest, ArrowOperatorReachesMembers) {
  StatusOr<std::string> value = std::string("abc");
  EXPECT_EQ(value->size(), 3u);
}

TEST(StatusOrTest, MutableAccess) {
  StatusOr<std::string> value = std::string("a");
  value.value() += "b";
  EXPECT_EQ(*value, "ab");
}

}  // namespace
}  // namespace colossal
