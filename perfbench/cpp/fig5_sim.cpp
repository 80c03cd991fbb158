// fig5_sim: the HLS protocol at 256 nodes on the paper's §4 fig5 spec
// (mix IR/R/U/IW/W 80/10/4/5/1, CS 15 ms, idle 150 ms, 150 ms uniform
// latency), 60 ops per node, one thread. Almost all wall time is
// per-event CPU in sim::Simulator and core::HlsEngine.
//
// Unit of work: build an HlsCluster (setup_s) and run it to completion
// (run_s). Repetitions cycle through a few sub-seeds derived from --seed;
// every repetition of a sub-seed must report identical counts.
//
// Traced run: SimNetwork::on_deliver / on_send and
// Simulator::post_event_hook time each event and each HlsNode::handle
// (on_deliver to post_event_hook) from outside.
#include <array>
#include <optional>
#include <utility>

#include "harness/cluster.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using hlock::Message;
using hlock::NodeId;
using hlock::harness::ClusterConfig;
using hlock::harness::ExperimentResult;
using hlock::harness::HlsCluster;

constexpr std::size_t kNodes = 256;
constexpr std::uint32_t kOpsPerNode = 60;
/// Seeds derived from --seed; repetitions cycle through them and the
/// protocol metrics pool them, so one run's figures rest on more than one
/// draw of the workload.
constexpr std::size_t kSubSeeds = 8;
constexpr std::size_t kCapturedMessages = 20000;
constexpr std::size_t kSpanCap = 400000;

/// Hooks one cluster's simulator and network; accumulates across reps.
class SimProbe {
 public:
  explicit SimProbe(SpanLog& log) : log_(log) {}

  void attach(HlsCluster& cluster) {
    cluster_ = &cluster;
    cluster.network().on_send = [this](NodeId, NodeId, const Message& m,
                                       bool) {
      ++sends_;
      bytes_ += hlock::encoded_size(m);
      if (captured.size() < kCapturedMessages) captured.push_back(m);
    };
    cluster.network().on_deliver = [this](NodeId, NodeId to,
                                          const Message& m) {
      deliver_ns_ = now_ns();
      in_deliver_ = true;
      kind_ = hls_kind_index(m.kind);
      to_ = to;
      lock_ = m.lock;
      key_ = request_key(m);
    };
    cluster.simulator().post_event_hook = [this] { on_event(); };
  }

  /// Spans are kept for the first traced run only, so the span file holds
  /// one whole run; the counters cover every run.
  void begin_run() {
    run_id_ = log_.next_id();
    run_start_ = last_ns_ = now_ns();
  }

  void end_run() {
    if (keep_spans_)
      log_.record(0, Span{run_id_, 0, 0, run_start_, now_ns(), SpanKind::kRun});
    keep_spans_ = false;
    slab_high_water_ =
        std::max(slab_high_water_, cluster_->simulator().slab_size());
    cluster_ = nullptr;
  }

  void report(Report& r) const {
    const auto per = [](double sum, std::uint64_t n) {
      return n == 0 ? 0.0 : sum / static_cast<double>(n);
    };
    r.set("sim.event_ns", per(event_ns_, events_), "ns");
    r.set("sim.dispatch_ns", per(dispatch_ns_, deliver_events_), "ns");
    r.set("sim.timer_event_ns", per(timer_ns_, events_ - deliver_events_),
          "ns");
    r.set("sim.sends_per_event", per(static_cast<double>(sends_), events_),
          "count");
    r.set("sim.slab_high_water", static_cast<double>(slab_high_water_),
          "count");
    for (std::size_t k = 0; k < handle_ns_.size(); ++k) {
      r.set(std::string("core.handle_ns.") + kHlsKinds[k],
            per(handle_ns_[k], handles_[k]), "ns");
    }
    r.set("core.queue_depth_max", static_cast<double>(queue_depth_max_),
          "count");
    r.set("msg.bytes_per_message", per(static_cast<double>(bytes_), sends_),
          "B");
  }

  std::vector<Message> captured;

 private:
  void on_event() {
    const std::int64_t t = now_ns();
    const std::int64_t ev = t - last_ns_;
    ++events_;
    event_ns_ += static_cast<double>(ev);
    const std::uint64_t ev_id = keep_spans_ ? log_.next_id() : 0;
    if (keep_spans_)
      log_.record(0, Span{ev_id, run_id_, in_deliver_ ? key_ : 0, last_ns_, t,
                          SpanKind::kEvent});
    if (in_deliver_) {
      const std::int64_t handle = t - deliver_ns_;
      ++deliver_events_;
      dispatch_ns_ += static_cast<double>(ev - handle);
      if (kind_ >= 0) {
        handle_ns_[static_cast<std::size_t>(kind_)] +=
            static_cast<double>(handle);
        ++handles_[static_cast<std::size_t>(kind_)];
      }
      const auto* engine = cluster_->node(to_.value).find(lock_);
      if (engine != nullptr)
        queue_depth_max_ = std::max(queue_depth_max_, engine->queue().size());
      if (keep_spans_)
        log_.record(0, Span{log_.next_id(), ev_id, key_, deliver_ns_, t,
                            SpanKind::kHandle});
      in_deliver_ = false;
    } else {
      timer_ns_ += static_cast<double>(ev);
    }
    last_ns_ = t;
  }

  SpanLog& log_;
  bool keep_spans_{true};
  HlsCluster* cluster_{nullptr};
  std::uint64_t run_id_{0};
  std::int64_t run_start_{0};
  std::int64_t last_ns_{0};
  // The delivery in flight between on_deliver and post_event_hook.
  bool in_deliver_{false};
  std::int64_t deliver_ns_{0};
  int kind_{-1};
  NodeId to_{};
  hlock::LockId lock_{};
  std::uint64_t key_{0};

  std::uint64_t events_{0};
  std::uint64_t deliver_events_{0};
  std::uint64_t sends_{0};
  std::uint64_t bytes_{0};
  double event_ns_{0};
  double dispatch_ns_{0};
  double timer_ns_{0};
  std::array<double, 5> handle_ns_{};
  std::array<std::uint64_t, 5> handles_{};
  std::size_t queue_depth_max_{0};
  std::size_t slab_high_water_{0};
};

}  // namespace

void run_fig5_sim(const RunArgs& args, Report& report) {
  const std::uint64_t expected = kNodes * kOpsPerNode;

  // Per sub-seed: the first repetition's result and event count, which
  // every later repetition of that sub-seed must reproduce exactly.
  struct SubSeed {
    ClusterConfig cfg;
    std::optional<ExperimentResult> first;
    std::uint64_t events{0};
  };
  std::vector<SubSeed> subs(kSubSeeds);
  for (std::size_t k = 0; k < kSubSeeds; ++k) {
    subs[k].cfg.nodes = kNodes;
    subs[k].cfg.spec.ops_per_node = kOpsPerNode;
    subs[k].cfg.spec.seed = mix_seed(args.seed, 100 + k);
  }
  std::uint64_t engines = 0;
  bool identical = true;
  std::vector<double> setup_s;
  std::size_t next = 0;

  // One repetition of the next sub-seed; returns {run seconds, events/s}.
  // `probe` hooks it when tracing.
  const auto rep = [&](SimProbe* probe) {
    SubSeed& sub = subs[next++ % kSubSeeds];
    const std::int64_t t0 = now_ns();
    HlsCluster cluster(sub.cfg);
    const std::int64_t t1 = now_ns();
    if (probe != nullptr) {
      probe->attach(cluster);
      probe->begin_run();
    }
    const std::int64_t t2 = now_ns();
    cluster.run();
    const std::int64_t t3 = now_ns();
    if (probe != nullptr) probe->end_run();
    setup_s.push_back(seconds_between(t0, t1));

    report.count_ops(expected, expected - cluster.completed_ops());
    const ExperimentResult r = cluster.result();
    const std::uint64_t ev = cluster.simulator().events_processed();
    if (!sub.first) {
      sub.first = r;
      sub.events = ev;
      engines = 0;
      for (std::size_t i = 0; i < kNodes; ++i)
        engines += cluster.node(i).lock_count();
    } else {
      identical = identical && r == *sub.first && ev == sub.events;
    }
    const double run = seconds_between(t2, t3);
    return std::pair{run, static_cast<double>(ev) / run};
  };

  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> run_s, events_per_s;
  repeat_for(budget, 2 * kSubSeeds, [&] {
    const auto [run, rate] = rep(nullptr);
    run_s.push_back(run);
    events_per_s.push_back(rate);
  });

  // Pool the sub-seeds' outcomes.
  std::uint64_t ops = 0, messages = 0, requests = 0;
  hlock::CounterMap kinds;
  std::vector<double> factors;
  for (const SubSeed& sub : subs) {
    ops += sub.first->app_ops;
    messages += sub.first->messages;
    requests += sub.first->lock_requests;
    kinds.merge(sub.first->messages_by_kind);
    const auto& f = sub.first->latency_factor.samples();
    factors.insert(factors.end(), f.begin(), f.end());
  }
  report.check(ops == expected * kSubSeeds,
               "completed_ops == nodes x ops_per_node for every sub-seed");
  report.check(identical, "repeated runs give identical results");

  const double run = median(run_s);
  report.note("reps=" + std::to_string(run_s.size()) + " over " +
              std::to_string(kSubSeeds) + " sub-seeds, events/rep=" +
              std::to_string(subs[0].events) +
              " messages/rep=" + std::to_string(subs[0].first->messages) +
              " freezes/rep=" +
              std::to_string(subs[0].first->messages_by_kind.get("freeze")));
  report.set("setup_s", median(setup_s), "s");
  report.set("run_s", run, "s");
  report.set("events_per_s", median(events_per_s), "1/s");
  report.set("ops_per_s", static_cast<double>(expected) / run, "1/s");
  report.set("msgs_per_request",
             static_cast<double>(messages) / static_cast<double>(requests),
             "1/request");
  report_virtual_latency(report, factors,
                         static_cast<double>(subs[0].cfg.spec.net_latency_mean));
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");
  if (!args.trace) return;

  SpanLog log(1, kSpanCap);
  SimProbe probe(log);
  std::vector<double> traced_s;
  repeat_for(budget, kSubSeeds,
             [&] { traced_s.push_back(rep(&probe).first); });
  report.check(identical, "traced runs give the untraced results");

  report.set("trace.overhead", median(traced_s) / run - 1.0, "ratio");
  probe.report(report);
  report_msgs_by_kind(report, kinds, requests);
  report.set("core.engines_materialized", static_cast<double>(engines),
             "count");
  report.set("lockmgr.requests_per_op",
             static_cast<double>(requests) / static_cast<double>(ops), "1/op");
  report_codec(report, probe.captured, /*frames=*/false);
  report_spans(report, log, args.spans_path);
}

}  // namespace perfbench
