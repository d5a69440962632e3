// The sample statistics behind the paper tables and figures (bench/bench_util):
// means, weighted means, percentiles, fixed-bucket histograms, reverse CDFs
// and terminal bars.
#include "bench/bench_util.h"

#include <gtest/gtest.h>

namespace frn {
namespace {

TEST(SamplesTest, MeanAndWeightedMean) {
  Samples s;
  s.Add(1.0, 1.0);
  s.Add(3.0, 3.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.WeightedMean(), (1.0 + 9.0) / 4.0);
  EXPECT_EQ(s.count(), 2u);
}

TEST(SamplesTest, EmptyIsZero) {
  Samples s;
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.WeightedMean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 0.0);
}

TEST(SamplesTest, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_NEAR(s.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.Percentile(50), 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.Max(), 100.0);
}

TEST(SamplesTest, SingleSamplePercentile) {
  Samples s;
  s.Add(7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 7.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 7.0);
  EXPECT_DOUBLE_EQ(s.Max(), 7.0);
}

TEST(SamplesTest, WeightedMeanDivergesFromUnweighted) {
  // A heavy slow sample dominates the weighted mean but not the unweighted
  // one — the distinction Table 2's "% (weighted)" column depends on.
  Samples s;
  s.Add(1.0, 1.0);
  s.Add(10.0, 99.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.5);
  EXPECT_DOUBLE_EQ(s.WeightedMean(), (1.0 + 990.0) / 100.0);
  EXPECT_GT(s.WeightedMean(), s.Mean());
}

TEST(SamplesTest, ZeroTotalWeightIsZero) {
  Samples s;
  s.Add(3.0, 0.0);
  EXPECT_DOUBLE_EQ(s.WeightedMean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
}

TEST(HistogramTest, ExactBoundaryLandsInUpperBucket) {
  Histogram h(1.0, 4);
  h.Add(0.999999);
  h.Add(1.0);  // half-open buckets: the boundary belongs to the next bucket
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 1u);
}

TEST(HistogramTest, EmptyFractionIsZero) {
  Histogram h(1.0, 4);
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.Fraction(0), 0.0);
}

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h(5.0, 10);
  h.Add(0.0);
  h.Add(4.9);
  h.Add(5.0);
  h.Add(49.9);
  h.Add(1000.0);  // overflow bucket
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[9], 1u);
  EXPECT_EQ(h.counts()[10], 1u);
  EXPECT_DOUBLE_EQ(h.Fraction(0), 0.4);
}

TEST(ReverseCdfTest, FractionExceeding) {
  std::vector<double> samples = {1, 2, 3, 4};
  auto rcdf = ReverseCdf(samples, 1.0, 4.0);
  ASSERT_EQ(rcdf.size(), 5u);
  EXPECT_DOUBLE_EQ(rcdf[0].second, 1.0);   // > 0
  EXPECT_DOUBLE_EQ(rcdf[1].second, 0.75);  // > 1
  EXPECT_DOUBLE_EQ(rcdf[4].second, 0.0);   // > 4
}

TEST(BarTest, Rendering) {
  EXPECT_EQ(Bar(0.0, 4), "....");
  EXPECT_EQ(Bar(0.5, 4), "##..");
  EXPECT_EQ(Bar(1.0, 4), "####");
  EXPECT_EQ(Bar(2.0, 4), "####");  // clamped
}

}  // namespace
}  // namespace frn
