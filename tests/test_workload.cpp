// Workload generator and airline-table tests.
#include <gtest/gtest.h>

#include <map>

#include "workload/airline.hpp"
#include "workload/generator.hpp"

namespace hlock::workload {
namespace {

TEST(WorkloadSpec, DefaultsMatchThePaper) {
  const WorkloadSpec spec;
  EXPECT_EQ(spec.cs_mean, msec(15));
  EXPECT_EQ(spec.idle_mean, msec(150));
  EXPECT_EQ(spec.net_latency_mean, msec(150));
  EXPECT_DOUBLE_EQ(spec.p_entry_read, 0.80);
  EXPECT_DOUBLE_EQ(spec.p_table_read, 0.10);
  EXPECT_DOUBLE_EQ(spec.p_upgrade, 0.04);
  EXPECT_DOUBLE_EQ(spec.p_entry_write, 0.05);
  EXPECT_DOUBLE_EQ(spec.p_table_write, 0.01);
  EXPECT_NO_THROW(spec.validate());
}

TEST(WorkloadSpec, RejectsBadMixAndTimings) {
  WorkloadSpec bad;
  bad.p_entry_read = 0.5;  // mix sums to 0.7
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  WorkloadSpec zero;
  zero.cs_mean = 0;
  EXPECT_THROW(zero.validate(), std::invalid_argument);

  WorkloadSpec bias;
  bias.home_bias = 1.5;
  EXPECT_THROW(bias.validate(), std::invalid_argument);

  WorkloadSpec entries;
  entries.entries_per_node = 0;
  EXPECT_THROW(entries.validate(), std::invalid_argument);
}

TEST(OpGenerator, MixConvergesToSpec) {
  WorkloadSpec spec;
  OpGenerator gen(spec, 0, 10, Rng(123));
  std::map<lockmgr::OpKind, int> counts;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) counts[gen.next().kind]++;
  const auto frac = [&](lockmgr::OpKind k) {
    return static_cast<double>(counts[k]) / kSamples;
  };
  EXPECT_NEAR(frac(lockmgr::OpKind::kEntryRead), 0.80, 0.01);
  EXPECT_NEAR(frac(lockmgr::OpKind::kTableRead), 0.10, 0.01);
  EXPECT_NEAR(frac(lockmgr::OpKind::kTableUpgrade), 0.04, 0.005);
  EXPECT_NEAR(frac(lockmgr::OpKind::kEntryWrite), 0.05, 0.005);
  EXPECT_NEAR(frac(lockmgr::OpKind::kTableWrite), 0.01, 0.003);
}

TEST(OpGenerator, CsAndIdleMeansMatchSpec) {
  WorkloadSpec spec;
  OpGenerator gen(spec, 0, 4, Rng(7));
  double cs_sum = 0, idle_sum = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    cs_sum += static_cast<double>(gen.next().cs);
    idle_sum += static_cast<double>(gen.next_idle());
  }
  EXPECT_NEAR(cs_sum / kSamples, static_cast<double>(msec(15)),
              static_cast<double>(msec(1)));
  EXPECT_NEAR(idle_sum / kSamples, static_cast<double>(msec(150)),
              static_cast<double>(msec(5)));
}

TEST(OpGenerator, HomeBiasSteersEntrySelection) {
  WorkloadSpec spec;
  spec.home_bias = 1.0;
  spec.entries_per_node = 2;
  OpGenerator gen(spec, 3, 8, Rng(5));
  for (int i = 0; i < 2000; ++i) {
    const auto op = gen.next();
    if (op.kind == lockmgr::OpKind::kEntryRead ||
        op.kind == lockmgr::OpKind::kEntryWrite) {
      EXPECT_GE(op.entry, 6u);  // node 3 owns entries 6 and 7
      EXPECT_LE(op.entry, 7u);
    }
  }

  WorkloadSpec uniform = spec;
  uniform.home_bias = 0.0;
  OpGenerator ugen(uniform, 3, 8, Rng(5));
  std::map<std::uint32_t, int> hist;
  for (int i = 0; i < 20000; ++i) {
    const auto op = ugen.next();
    if (op.kind == lockmgr::OpKind::kEntryRead) hist[op.entry]++;
  }
  EXPECT_EQ(hist.size(), 16u);  // all entries hit
}

TEST(OpGenerator, EntriesAlwaysInRange) {
  WorkloadSpec spec;
  spec.entries_per_node = 3;
  OpGenerator gen(spec, 2, 5, Rng(99));
  EXPECT_EQ(gen.entry_count(), 15u);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(gen.next().entry, 15u);
  }
}

TEST(OpGenerator, DeterministicFromSeed) {
  const WorkloadSpec spec;
  OpGenerator a(spec, 1, 4, Rng(11));
  OpGenerator b(spec, 1, 4, Rng(11));
  for (int i = 0; i < 100; ++i) {
    const auto oa = a.next();
    const auto ob = b.next();
    EXPECT_EQ(oa.kind, ob.kind);
    EXPECT_EQ(oa.entry, ob.entry);
    EXPECT_EQ(oa.cs, ob.cs);
  }
}

// ----------------------------------------------------------- fare table --

TEST(FareTable, InitialDataIsPlausible) {
  const FareTable t(10, 1);
  EXPECT_EQ(t.entries(), 10u);
  for (std::uint32_t e = 0; e < 10; ++e) {
    EXPECT_GE(t.price(e), 5'000);
    EXPECT_LE(t.price(e), 150'000);
    EXPECT_GE(t.seats(e), 50u);
  }
}

TEST(FareTable, BookingConservesSeats) {
  FareTable t(4, 2);
  const auto before = t.total_seats();
  EXPECT_TRUE(t.book_seat(1));
  EXPECT_TRUE(t.book_seat(1));
  EXPECT_EQ(t.total_seats(), before - 2);
  t.release_seat(1);
  EXPECT_EQ(t.total_seats(), before - 1);
}

TEST(FareTable, SoldOutReturnsFalse) {
  FareTable t(1, 3);
  while (t.seats(0) > 0) EXPECT_TRUE(t.book_seat(0));
  EXPECT_FALSE(t.book_seat(0));
}

TEST(FareTable, GuardsDetectWriterOverlap) {
  FareTable t(2, 4);
  t.begin_write(0);
  EXPECT_EQ(t.violations(), 0u);
  t.begin_read(0);  // reader under an active writer -> violation
  EXPECT_EQ(t.violations(), 1u);
  t.end_read(0);
  t.begin_write(0);  // second writer -> violation
  EXPECT_EQ(t.violations(), 2u);
  t.end_write(0);
  t.end_write(0);
  // Distinct rows never conflict.
  t.begin_write(0);
  t.begin_write(1);
  EXPECT_EQ(t.violations(), 2u);
  t.end_write(0);
  t.end_write(1);
}

TEST(FareTable, ReadersShareWithoutViolation) {
  FareTable t(1, 5);
  t.begin_read(0);
  t.begin_read(0);
  t.begin_read(0);
  EXPECT_EQ(t.violations(), 0u);
  t.end_read(0);
  t.end_read(0);
  t.end_read(0);
  EXPECT_THROW(t.end_read(0), std::logic_error);
}

TEST(FareTable, OutOfRangeThrows) {
  FareTable t(2, 6);
  EXPECT_THROW((void)t.price(2), std::out_of_range);
  EXPECT_THROW(t.begin_write(5), std::out_of_range);
}

}  // namespace
}  // namespace hlock::workload
