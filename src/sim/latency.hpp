// Point-to-point message latency models for the simulated network.
//
// The paper randomizes network latency around a 150 ms mean (FastEther LAN
// plus injected delay); the exact distribution is unspecified, so the model
// is pluggable. The default is uniform over [mean/2, 3*mean/2], which has
// the stated mean and keeps latencies strictly positive.
#pragma once

#include <memory>
#include <stdexcept>

#include "common/cluster_map.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace hlock::sim {

/// Samples one message's in-flight time.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  virtual Duration sample(Rng& rng) = 0;
  /// The distribution mean; the harness normalizes latencies by this to
  /// report the paper's "latency factor".
  [[nodiscard]] virtual Duration mean() const = 0;
  /// Hard lower bound of the distribution's support: no sample() or
  /// sample_pair() draw may ever come back below this (SimNetwork
  /// debug-asserts every sample against it). A model that carries
  /// cross-shard events bounds the sharded simulator's conservative
  /// window — lookahead = min_latency() - 1 — so for such a model an
  /// optimistic floor is a correctness bug, not a tuning knob; the
  /// simulator throws on the first post that lands inside its window.
  /// Models whose events stay on one shard (a tree's own network) do not
  /// bound the window at all. Pure virtual on purpose: every model must
  /// be able to state its floor.
  [[nodiscard]] virtual Duration min_latency() const = 0;
  /// Endpoint-aware sampling; flat models ignore the pair and MUST keep
  /// delegating to sample() so topology-free runs consume the identical
  /// RNG stream they always did (byte-identical oracle outputs).
  virtual Duration sample_pair(NodeId /*from*/, NodeId /*to*/, Rng& rng) {
    return sample(rng);
  }
};

/// Every message takes exactly `mean`.
class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(Duration m) : mean_(m) {}
  Duration sample(Rng&) override { return mean_; }
  [[nodiscard]] Duration mean() const override { return mean_; }
  [[nodiscard]] Duration min_latency() const override { return mean_; }

 private:
  Duration mean_;
};

/// Uniform over [mean/2, 3*mean/2].
class UniformLatency final : public LatencyModel {
 public:
  explicit UniformLatency(Duration m) : mean_(m) {}
  Duration sample(Rng& rng) override {
    return rng.uniform(mean_ / 2, mean_ + mean_ / 2);
  }
  [[nodiscard]] Duration mean() const override { return mean_; }
  [[nodiscard]] Duration min_latency() const override { return mean_ / 2; }

 private:
  Duration mean_;
};

/// Shifted exponential: min + Exp(mean - min); heavier tail than uniform.
class ExponentialLatency final : public LatencyModel {
 public:
  ExponentialLatency(Duration m, Duration min_latency)
      : mean_(m), min_(min_latency) {}
  Duration sample(Rng& rng) override {
    const double extra = rng.exponential(static_cast<double>(mean_ - min_));
    return min_ + static_cast<Duration>(extra);
  }
  [[nodiscard]] Duration mean() const override { return mean_; }
  [[nodiscard]] Duration min_latency() const override { return min_; }

 private:
  Duration mean_;
  Duration min_;
};

/// Asymmetric clustered topology: a pair inside one cluster samples the
/// (cheap) intra-cluster model, a pair crossing a cluster boundary the
/// (expensive) inter-cluster model — e.g. 0.05 ms intra vs 1-150 ms inter.
/// mean() reports the INTER mean: the latency factor measures how many
/// expensive boundary hops an acquisition effectively costs, which is the
/// figure the locality-biased protocol is trying to shrink.
class ClusteredLatency final : public LatencyModel {
 public:
  /// `map` is borrowed (the harness owns it) and must outlive the model.
  ClusteredLatency(const ClusterMap* map, std::unique_ptr<LatencyModel> intra,
                   std::unique_ptr<LatencyModel> inter)
      : map_(map), intra_(std::move(intra)), inter_(std::move(inter)) {
    if (!map_ || !intra_ || !inter_)
      throw std::invalid_argument("clustered latency needs map + models");
  }

  /// Pairless calls have no locality information: charge the conservative
  /// inter-cluster cost.
  Duration sample(Rng& rng) override { return inter_->sample(rng); }
  Duration sample_pair(NodeId from, NodeId to, Rng& rng) override {
    return map_->same_cluster(from, to) ? intra_->sample(rng)
                                        : inter_->sample(rng);
  }
  [[nodiscard]] Duration mean() const override { return inter_->mean(); }
  /// Any pair may route to either component, so the only safe floor is
  /// the minimum of the two supports — with a cheap intra-cluster model
  /// this dips far below inter/2.
  [[nodiscard]] Duration min_latency() const override {
    return intra_->min_latency() < inter_->min_latency()
               ? intra_->min_latency()
               : inter_->min_latency();
  }
  [[nodiscard]] Duration intra_mean() const { return intra_->mean(); }
  [[nodiscard]] const ClusterMap& map() const { return *map_; }

 private:
  const ClusterMap* map_;
  std::unique_ptr<LatencyModel> intra_;
  std::unique_ptr<LatencyModel> inter_;
};

}  // namespace hlock::sim
