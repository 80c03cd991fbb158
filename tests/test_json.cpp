// JSON writer regressions: doubles must be emitted at round-trip
// precision (the old default-precision stream output truncated every
// metric to 6 significant digits), non-finite values must become `null`
// (bare `nan`/`inf` tokens are invalid JSON), and the emitted documents
// are pinned byte for byte.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "harness/json.hpp"
#include "harness/metrics.hpp"

using namespace hlock;
using namespace hlock::harness;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Parse a whole JSON number token back with std::from_chars; fails the
/// test on a partial parse.
double parse_double(const std::string& text) {
  double v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  EXPECT_EQ(ec, std::errc{}) << text;
  EXPECT_EQ(ptr, text.data() + text.size()) << text;
  return v;
}

/// The raw token of the first numeric `name` field of a one-line document.
std::string field(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const auto at = json.find(key);
  if (at == std::string::npos) return {};
  const auto start = at + key.size();
  return json.substr(start, json.find_first_of(",}", start) - start);
}

TEST(JsonDouble, RoundTripsExactly) {
  for (const double v :
       {0.0, 1.0, 0.1, 1.0 / 3.0, 2.0 / 3.0, 1e-300, 1e300, 123456.789,
        0.30000000000000004, -5.5, 3.0609375314898458,
        std::nextafter(2.2, 3.0), std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max()}) {
    const std::string text = json_double(v);
    EXPECT_EQ(v, parse_double(text)) << text;  // bit-exact, not approximate
  }
}

TEST(JsonDouble, ShortestFormStaysHuman) {
  // to_chars emits the shortest text that parses back exactly; simple
  // values must not turn into 17-digit monsters.
  EXPECT_EQ(json_double(0.1), "0.1");
  EXPECT_EQ(json_double(3.0), "3");
  EXPECT_EQ(json_double(0.5), "0.5");
}

TEST(JsonDouble, NonFiniteBecomesNull) {
  EXPECT_EQ(json_double(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_double(kInf), "null");
  EXPECT_EQ(json_double(-kInf), "null");
}

TEST(JsonWriter, ResultJsonIsValidAndExact) {
  ExperimentResult r;
  r.nodes = 7;
  r.app_ops = 140;
  r.lock_requests = 3;  // msgs_per_lock_request becomes a long fraction
  r.messages = 1000;
  r.wire_bytes = 0xFFFFFFFFFFFFull;
  r.messages_by_kind.inc("request", 600);
  r.messages_by_kind.inc("grant", 400);
  r.latency_factor.add(1.1);
  r.latency_factor.add(2.2);
  r.latency_factor.add(std::nextafter(2.2, 3.0));  // adjacent double
  r.latency_factor.seal();
  r.virtual_end = 123456789;

  const std::string json = to_json(r);
  EXPECT_EQ(json,
            "{\"nodes\":7,\"app_ops\":140,\"lock_requests\":3,"
            "\"messages\":1000,\"wire_bytes\":281474976710655,"
            "\"messages_dropped\":0,"
            "\"msgs_per_lock_request\":333.3333333333333,"
            "\"msgs_per_op\":7.142857142857143,\"virtual_end_us\":123456789,"
            "\"messages_by_kind\":{\"grant\":400,\"request\":600},"
            "\"latency_factor\":{\"count\":3,\"mean\":1.8333333333333337,"
            "\"min\":1.1,\"max\":2.2000000000000006,\"p50\":2.2,"
            "\"p95\":2.2000000000000006,\"stddev\":0.5185449728701347},"
            "\"latency_by_kind\":{}}");

  // The derived values must round-trip through the emitted text exactly.
  EXPECT_EQ(parse_double(field(json, "msgs_per_lock_request")),
            r.msgs_per_lock_request());
  EXPECT_EQ(parse_double(field(json, "mean")), r.latency_factor.mean());
  EXPECT_EQ(parse_double(field(json, "p95")), r.latency_factor.percentile(0.95));
  EXPECT_EQ(parse_double(field(json, "stddev")), r.latency_factor.stddev());
}

TEST(JsonWriter, TopologySplitEmittedOnlyForClusteredRuns) {
  ExperimentResult flat;
  flat.messages = 10;
  // Flat run: counters all zero -> the split is omitted entirely, keeping
  // flat output byte-identical to the pre-topology emitter.
  const std::string flat_json = to_json(flat);
  EXPECT_EQ(flat_json.find("cross_cluster"), std::string::npos) << flat_json;

  ExperimentResult clustered;
  clustered.messages = 10;
  clustered.intra_cluster_messages = 7;
  clustered.cross_cluster_messages = 3;
  clustered.intra_cluster_bytes = 700;
  clustered.cross_cluster_bytes = 300;
  const std::string json = to_json(clustered);
  EXPECT_NE(json.find("\"messages_dropped\":0,\"intra_cluster_messages\":7,"
                      "\"cross_cluster_messages\":3,"
                      "\"intra_cluster_bytes\":700,"
                      "\"cross_cluster_bytes\":300,"
                      "\"cross_cluster_fraction\":0.3,"
                      "\"msgs_per_lock_request\":0,"),
            std::string::npos)
      << json;
}

TEST(JsonWriter, NonFiniteSummaryStaysValidJson) {
  // Infinite samples poison the running sums (inf + -inf = NaN, inf^2 =
  // inf), and a NaN sample poisons its own; every derived statistic the
  // writer emits must then map to null, never to a bare nan/inf token.
  ExperimentResult r;
  r.latency_factor.add(kInf);
  r.latency_factor.add(-kInf);
  ASSERT_TRUE(std::isnan(r.latency_factor.mean()));
  r.latency_by_kind["poisoned"].add(std::numeric_limits<double>::quiet_NaN());

  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"latency_factor\":{\"count\":2,\"mean\":null,"
                      "\"min\":null,\"max\":null,\"p50\":null,\"p95\":null,"
                      "\"stddev\":0}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"latency_by_kind\":{\"poisoned\":{\"count\":1,"
                      "\"mean\":null,\"min\":null,\"max\":null,"
                      "\"p50\":null,\"p95\":null,\"stddev\":0}}}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(SummaryStddev, NearConstantSamplesNeverGoNaN) {
  // Catastrophic cancellation: E[x^2] - E[x]^2 for near-identical
  // samples can come out a hair negative; sqrt of that is NaN unless the
  // variance is clamped at zero.
  const std::vector<double> samples{0.1, 0.1, 0.1};
  double sum = 0, sum_sq = 0;
  for (const double v : samples) {
    sum += v;
    sum_sq += v * v;
  }
  const double n = static_cast<double>(samples.size());
  const double mean = sum / n;
  // The raw expression really is negative for these samples, so the
  // clamp is what the assertions below exercise.
  ASSERT_LT(sum_sq / n - mean * mean, 0.0);

  Summary s;
  for (const double v : samples) s.add(v);
  EXPECT_FALSE(std::isnan(s.stddev()));
  EXPECT_EQ(s.stddev(), 0.0);

  // And the JSON it feeds stays valid (this was the source of the
  // invalid `nan` tokens).
  EXPECT_EQ(json_double(s.stddev()), "0");
}

}  // namespace
