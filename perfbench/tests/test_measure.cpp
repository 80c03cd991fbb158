// Tests of the benchmark's own arithmetic: percentiles and their sample
// counts, per-channel FIFO matching of sends to receives, the derived
// sharded/pool efficiencies, and span self times.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "measure.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankWithCounts) {
  const Percentile p50 = percentile(one_to(100), 0.50);
  EXPECT_DOUBLE_EQ(p50.value, 50);
  EXPECT_EQ(p50.n, 100u);
  EXPECT_EQ(p50.beyond, 50u);

  const Percentile p99 = percentile(one_to(100), 0.99);
  EXPECT_DOUBLE_EQ(p99.value, 99);
  EXPECT_EQ(p99.beyond, 1u);

  const Percentile max = percentile(one_to(7), 1.0);
  EXPECT_DOUBLE_EQ(max.value, 7);
  EXPECT_EQ(max.beyond, 0u);
}

TEST(Percentile, EmptyAndSingle) {
  const Percentile empty = percentile({}, 0.5);
  EXPECT_EQ(empty.n, 0u);
  EXPECT_FALSE(empty.reportable());
  const Percentile one = percentile({4.5}, 0.5);
  EXPECT_DOUBLE_EQ(one.value, 4.5);
  EXPECT_EQ(one.beyond, 0u);
}

TEST(Percentile, RejectsBadQuantile) {
  EXPECT_THROW(percentile({1, 2}, 0.0), std::invalid_argument);
  EXPECT_THROW(percentile({1, 2}, 1.5), std::invalid_argument);
}

TEST(Percentile, ReportableNeedsTenSamplesBeyond) {
  // p99 of 999 samples is rank 990: only 9 beyond, not reportable.
  EXPECT_FALSE(percentile(one_to(999), 0.99).reportable());
  // One more sample puts the 10th beyond it.
  const Percentile p = percentile(one_to(1000), 0.99);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_TRUE(p.reportable());
  EXPECT_TRUE(percentile(one_to(20), 0.50).reportable());
  EXPECT_FALSE(percentile(one_to(19), 0.50).reportable());
}

TEST(IntHistogram, MatchesSamplePercentiles) {
  IntHistogram a(1000), b(1000);
  std::vector<double> samples;
  for (int i = 0; i < 3000; ++i) {
    const int v = (i * 7919) % 997;
    (i % 2 == 0 ? a : b).add(static_cast<std::uint64_t>(v));
    samples.push_back(v);
  }
  a.merge(b);
  EXPECT_EQ(a.percentile(0.5).n, 3000u);
  for (const double q : {0.01, 0.5, 0.9, 0.99, 1.0}) {
    const Percentile h = a.percentile(q);
    const Percentile s = percentile(samples, q);
    EXPECT_DOUBLE_EQ(h.value, s.value) << q;
    EXPECT_EQ(h.n, s.n);
    EXPECT_EQ(h.beyond, s.beyond);
  }
}

TEST(IntHistogram, OverflowBucketAndEmpty) {
  IntHistogram h(10);
  EXPECT_EQ(h.percentile(0.5).n, 0u);
  h.add(3);
  h.add(50);  // past the limit: counted as 10
  EXPECT_DOUBLE_EQ(h.percentile(1.0).value, 10);
  EXPECT_DOUBLE_EQ(h.percentile(0.5).value, 3);
  IntHistogram other(20);
  EXPECT_THROW(h.merge(other), std::invalid_argument);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(FifoMatcher, MatchesPerChannelInOrder) {
  FifoMatcher<int> m(3);
  m.on_send(0, 1, 10);
  m.on_send(0, 1, 11);
  m.on_send(1, 0, 20);  // the reverse channel is independent
  m.on_send(2, 1, 30);
  EXPECT_EQ(m.unmatched(), 4u);
  EXPECT_EQ(m.on_receive(1, 0), 20);
  EXPECT_EQ(m.on_receive(0, 1), 10);
  EXPECT_EQ(m.on_receive(2, 1), 30);
  EXPECT_EQ(m.on_receive(0, 1), 11);
  EXPECT_EQ(m.on_receive(0, 1), std::nullopt);  // a receive never sent
  EXPECT_EQ(m.unmatched(), 0u);
}

TEST(FifoMatcher, ConcurrentChannelsKeepOrder) {
  constexpr int kPerChannel = 20000;
  FifoMatcher<int> m(2);
  std::vector<int> got01, got10;
  // One sender and one receiver thread per direction, interleaved.
  std::thread s01([&] { for (int i = 0; i < kPerChannel; ++i) m.on_send(0, 1, i); });
  std::thread s10([&] { for (int i = 0; i < kPerChannel; ++i) m.on_send(1, 0, -i); });
  std::thread r01([&] {
    while (static_cast<int>(got01.size()) < kPerChannel)
      if (auto v = m.on_receive(0, 1)) got01.push_back(*v);
  });
  std::thread r10([&] {
    while (static_cast<int>(got10.size()) < kPerChannel)
      if (auto v = m.on_receive(1, 0)) got10.push_back(*v);
  });
  s01.join();
  s10.join();
  r01.join();
  r10.join();
  for (int i = 0; i < kPerChannel; ++i) {
    ASSERT_EQ(got01[static_cast<std::size_t>(i)], i);
    ASSERT_EQ(got10[static_cast<std::size_t>(i)], -i);
  }
}

TEST(Derived, ParallelEfficiency) {
  // 1.0 s serial, 2 shards, 0.5 s parallel = perfect; 2.5 s = 0.2.
  EXPECT_DOUBLE_EQ(parallel_efficiency(1.0, 2, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(parallel_efficiency(1.0, 2, 2.5), 0.2);
  EXPECT_THROW(parallel_efficiency(1.0, 0, 1.0), std::invalid_argument);
}

TEST(Derived, RoundOverhead) {
  // 2.5 s on 2 shards of 0.3 s serial work over 100000 rounds:
  // (2.5 - 0.15) / 1e5 s = 23.5 us per round.
  EXPECT_NEAR(round_overhead_us(2.5, 0.3, 2, 100000), 23.5, 1e-9);
  // A perfectly split run has no round overhead.
  EXPECT_NEAR(round_overhead_us(0.15, 0.3, 2, 100), 0.0, 1e-12);
  EXPECT_THROW(round_overhead_us(1, 1, 2, 0), std::invalid_argument);
}

TEST(Derived, PoolEfficiency) {
  // 1.2 s of distinct point work on 2 workers in 0.8 s = 0.75.
  EXPECT_DOUBLE_EQ(pool_efficiency({0.5, 0.4, 0.3}, 2, 0.8), 0.75);
  EXPECT_THROW(pool_efficiency({0.5}, 2, 0.0), std::invalid_argument);
}

TEST(SelfTime, SubtractsUnionOfChildren) {
  std::vector<Span> spans;
  spans.push_back({1, 0, 0, 0, 100, SpanKind::kRun});
  // Two overlapping children covering [10, 40) and one at [50, 60).
  spans.push_back({2, 1, 0, 10, 30, SpanKind::kEvent});
  spans.push_back({3, 1, 0, 20, 40, SpanKind::kEvent});
  spans.push_back({4, 1, 0, 50, 60, SpanKind::kEvent});
  // A grandchild counts against its parent only.
  spans.push_back({5, 2, 0, 12, 18, SpanKind::kHandle});
  // A child sticking out of its parent is clipped.
  spans.push_back({6, 4, 0, 55, 70, SpanKind::kHandle});
  const std::vector<SelfTime> st = self_times(spans);
  const auto& run = st[static_cast<std::size_t>(SpanKind::kRun)];
  EXPECT_EQ(run.count, 1u);
  EXPECT_DOUBLE_EQ(run.mean_self_us, (100 - 30 - 10) / 1e3);
  const auto& ev = st[static_cast<std::size_t>(SpanKind::kEvent)];
  EXPECT_EQ(ev.count, 3u);
  // Self: 20-6, 20, 10-5 -> mean 43/3 ns.
  EXPECT_NEAR(ev.mean_self_us, (14.0 + 20.0 + 5.0) / 3 / 1e3, 1e-12);
  const auto& h = st[static_cast<std::size_t>(SpanKind::kHandle)];
  EXPECT_NEAR(h.mean_us, (6.0 + 15.0) / 2 / 1e3, 1e-12);
}

TEST(SpanLog, CapsPerWriterAndCountsDrops) {
  SpanLog log(2, 2);
  for (int i = 0; i < 3; ++i) log.record(0, {log.next_id(), 0, 0, 0, 1, SpanKind::kOp});
  log.record(1, {log.next_id(), 0, 0, 0, 1, SpanKind::kOp});
  EXPECT_EQ(log.all().size(), 3u);
  EXPECT_EQ(log.dropped(), 1u);
}

TEST(RequestKey, SharedBySpansOfOneRequest) {
  hlock::Message a;
  a.lock = hlock::LockId{3};
  a.req.requester = hlock::NodeId{1};
  a.req.stamp.counter = 42;
  hlock::Message b = a;
  b.kind = hlock::MsgKind::kGrant;
  b.from = hlock::NodeId{2};
  EXPECT_EQ(request_key(a), request_key(b));
  b.req.stamp.counter = 43;
  EXPECT_NE(request_key(a), request_key(b));
  EXPECT_EQ(request_key(hlock::Message{}), 0u);
}

}  // namespace
}  // namespace perfbench
