// Tests for the benchmark's own statistics: quantiles, the rule that a
// percentile is reported only with at least ten samples beyond it, and
// span self time.
#include <gtest/gtest.h>

#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace e2e {
namespace {

TEST(Quantile, InterpolatesBetweenRanks) {
  const std::vector<double> sorted = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.25), 1.75);
}

TEST(Quantile, SortsItsInputAndHandlesSmallSamples) {
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(quantile({10, 0}, 0.9), 9.0);
}

TEST(Quantile, MatchesKnownPercentilesOfARamp) {
  std::vector<double> ramp;
  for (int i = 0; i <= 1000; ++i) ramp.push_back(i);
  EXPECT_DOUBLE_EQ(quantile_sorted(ramp, 0.99), 990.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(ramp, 0.9), 900.0);
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(percentile_supported(99, 90));
  EXPECT_TRUE(percentile_supported(100, 90));  // exactly ten beyond p90
  EXPECT_FALSE(percentile_supported(999, 99));
  EXPECT_TRUE(percentile_supported(1000, 99));
  EXPECT_FALSE(percentile_supported(19, 50));
  EXPECT_TRUE(percentile_supported(20, 50));
  EXPECT_FALSE(percentile_supported(1000000, 100));
  EXPECT_FALSE(percentile_supported(1000000, 0));
}

TEST(PercentileRule, RefusesAnUnsupportedPercentile) {
  std::vector<double> values(99, 1.0);
  EXPECT_EQ(supported_percentile(values, 90), std::nullopt);
  values.push_back(2.0);
  ASSERT_TRUE(supported_percentile(values, 90).has_value());
  EXPECT_NEAR(*supported_percentile(values, 90), 1.0, 1e-12);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer tracer(true);
  const int root = tracer.add("root", 0, 100, -1, 7, 0);
  tracer.add("child", 10, 40, root, 7, 0);
  tracer.add("child", 30, 60, root, 7, 0);  // overlaps the first child
  tracer.add("child", 90, 150, root, 7, 0);  // clipped to the parent
  const auto self = tracer.self_times();
  EXPECT_EQ(self.at("root").self_ns, 100 - 50 - 10);
  EXPECT_EQ(self.at("root").total_ns, 100);
  EXPECT_EQ(self.at("child").count, 3);
  EXPECT_EQ(self.at("child").self_ns, 30 + 30 + 60);
}

TEST(Spans, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  {
    Tracer::Scope scope(tracer, "ignored");
    EXPECT_EQ(scope.id(), -1);
  }
  EXPECT_EQ(tracer.add("x", 0, 1, -1, -1, 0), -1);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(Spans, NestedScopesLinkToTheirParentAndRequest) {
  Tracer tracer(true);
  {
    Tracer::Scope outer(tracer, "outer", 42);
    Tracer::Scope inner(tracer, "inner");
  }
  ASSERT_EQ(tracer.size(), 2u);
  const auto self = tracer.self_times();
  EXPECT_EQ(self.at("outer").count, 1);
  EXPECT_EQ(self.at("inner").count, 1);
  EXPECT_LE(self.at("outer").self_ns, self.at("outer").total_ns);
}

}  // namespace
}  // namespace e2e
