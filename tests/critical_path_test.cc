// Bandwidth ledger + per-round critical-path analyzer (obs/critical_path):
// queueing delay accounted separately from transmission time, synthetic
// bottleneck attribution, thread-count invariance of the round reports,
// the trace-sampling timing invariant, and the fan-in diagnosis the
// analyzer was built for (the OC leader's downlink absorbing witness and
// exec-result fan-in).

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/system.h"
#include "net/dissemination.h"
#include "net/event_queue.h"
#include "net/network.h"
#include "obs/critical_path.h"
#include "obs/trace.h"
#include "workload/generator.h"

namespace porygon {
namespace {

// --- Net-level ledger -------------------------------------------------------

TEST(CriticalPathTest, QueueingDelaySeparatedFromTransmission) {
  net::EventQueue events;
  net::SimNetwork net(&events, Rng(1));
  // 1 MB/s uplink sender; receiver with a 10x slower downlink, so arrivals
  // queue on the downlink while sends queue on the uplink.
  const net::NodeId a = net.AddNode({1e6, 1e6}, "client");
  const net::NodeId b = net.AddNode({1e6, 1e5}, "server");
  net.SetLatency(500, 0);
  net.SetHandler(b, [](const net::Message&) {});

  // Two back-to-back 1000-byte sends: tx time 1000 us each, so the second
  // waits exactly one transmission on the uplink.
  for (int i = 0; i < 2; ++i) {
    net::Message m;
    m.from = a;
    m.to = b;
    m.kind = 1;
    m.wire_size = 1000;
    net.Send(std::move(m));
  }
  events.RunUntilIdle();

  const net::LinkActivity& up = net.ActivityFor(a);
  EXPECT_EQ(up.bytes_up, 2000u);
  EXPECT_EQ(up.msgs_up, 2u);
  EXPECT_EQ(up.busy_up_us, 2000);   // Two transmissions.
  EXPECT_EQ(up.queue_up_us, 1000);  // Second send waited out the first.

  // Downlink: rx = 10,000 us each. First arrives at 1500 (queue 0); the
  // second arrives at 2500 while the downlink is busy until 11,500.
  const net::LinkActivity& down = net.ActivityFor(b);
  EXPECT_EQ(down.bytes_down, 2000u);
  EXPECT_EQ(down.msgs_down, 2u);
  EXPECT_EQ(down.busy_down_us, 20000);
  EXPECT_EQ(down.queue_down_us, 9000);
  EXPECT_EQ(net.RoleName(a), "client");
  EXPECT_EQ(net.RoleName(b), "server");
}

TEST(CriticalPathTest, SyntheticBottleneckNamesDominantEdge) {
  net::EventQueue events;
  net::SimNetwork net(&events, Rng(1));
  const net::NodeId a = net.AddNode({1e6, 1e6}, "client");
  const net::NodeId b = net.AddNode({1e6, 1e5}, "server");
  net.SetLatency(500, 0);
  net.SetHandler(b, [](const net::Message&) {});
  for (int i = 0; i < 20; ++i) {
    net::Message m;
    m.from = a;
    m.to = b;
    m.kind = 1;
    m.wire_size = 1000;
    net.Send(std::move(m));
  }
  events.RunUntilIdle();

  // Build the round window straight off the cumulative ledger (baseline
  // zero) and let the analyzer attribute it: the server's downlink is 10x
  // slower than everything else, so it must be named dominant.
  obs::CriticalPathAnalyzer cp;
  std::vector<obs::LinkWindow> links;
  const net::LinkActivity& up = net.ActivityFor(a);
  const net::LinkActivity& down = net.ActivityFor(b);
  links.push_back({"client.uplink", up.bytes_up, up.queue_up_us,
                   up.busy_up_us});
  links.push_back({"server.downlink", down.bytes_down, down.queue_down_us,
                   down.busy_down_us});
  cp.BeginRound(1, 0);
  const obs::RoundReport* rep = cp.CommitRound(1, events.now(), links);
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->dominant_edge, "server.downlink");
  EXPECT_EQ(rep->dominant_segment, "downlink_queue");
  // The slow downlink was busy essentially the whole window.
  EXPECT_GT(rep->dominant_edge_share_pm, 900u);
  EXPECT_EQ(rep->downlink_queue_us, down.queue_down_us);
  EXPECT_EQ(rep->uplink_queue_us, up.queue_up_us);
  // Deterministic JSON carries the attribution.
  const std::string json = rep->ToJson();
  EXPECT_NE(json.find("\"dominant_edge\":\"server.downlink\""),
            std::string::npos);
  EXPECT_NE(json.find("\"dominant_segment\":\"downlink_queue\""),
            std::string::npos);
}

TEST(CriticalPathTest, InflightHighWatermarkTracksAndResets) {
  net::EventQueue events;
  net::SimNetwork net(&events, Rng(1));
  const net::NodeId a = net.AddNode({1e6, 1e6}, "client");
  const net::NodeId b = net.AddNode({1e6, 1e6}, "server");
  net.SetLatency(500, 0);
  net.SetHandler(b, [](const net::Message&) {});
  for (int i = 0; i < 5; ++i) {
    net::Message m;
    m.from = a;
    m.to = b;
    m.kind = 1;
    m.wire_size = 100;
    net.Send(std::move(m));
  }
  EXPECT_EQ(net.InflightFor("server"), 5u);
  EXPECT_EQ(net.InflightHwmFor("server"), 5u);
  events.RunUntilIdle();
  EXPECT_EQ(net.InflightFor("server"), 0u);
  EXPECT_EQ(net.InflightHwmFor("server"), 5u);  // Sticky until reset.
  net.ResetInflightHighWatermarks();
  EXPECT_EQ(net.InflightHwmFor("server"), 0u);
}

// --- System-level -----------------------------------------------------------

struct SysArtifacts {
  std::string reports_json;
  std::string metrics_json;
  std::string dominant_edge;
  double sim_seconds = 0;
  crypto::Hash256 global_root{};
  size_t report_count = 0;
};

SysArtifacts RunCompact(int worker_threads, bool trace = false,
                        core::PorygonSystem** keep = nullptr) {
  core::SystemOptions opt;
  opt.params.shard_bits = 1;
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 50;
  opt.params.storage_connections = 2;
  opt.num_storage_nodes = 2;
  opt.num_stateless_nodes = 26;
  opt.oc_size = 4;
  opt.blocks_per_shard_round = 2;
  opt.seed = 33;
  opt.worker_threads = worker_threads;
  opt.trace.enabled = trace;
  opt.trace.sample_transactions = 8;

  auto* sys = new core::PorygonSystem(opt);
  sys->CreateAccounts(60, 10'000);
  Rng rng(99);
  std::map<uint64_t, uint64_t> nonces;
  for (int i = 0; i < 80; ++i) {
    uint64_t from = 1 + rng.NextBelow(60);
    uint64_t to = 1 + rng.NextBelow(60);
    if (from == to) continue;
    tx::Transaction t;
    t.from = from;
    t.to = to;
    t.amount = 1;
    t.nonce = nonces[from];
    if (sys->SubmitTransaction(t).ok()) ++nonces[from];
  }
  sys->Run(8);

  SysArtifacts out;
  out.reports_json = sys->critical_path().ReportsJson();
  out.metrics_json = sys->metrics().ToJson();
  out.dominant_edge = sys->critical_path().DominantEdgeMode();
  out.sim_seconds = sys->sim_seconds();
  out.global_root = sys->canonical_state().GlobalRoot();
  out.report_count = sys->critical_path().reports().size();
  if (keep != nullptr) {
    *keep = sys;
  } else {
    delete sys;
  }
  return out;
}

TEST(CriticalPathTest, RoundReportsAreThreadInvariant) {
  unsetenv("PORYGON_THREADS");
  const SysArtifacts serial = RunCompact(0);
  ASSERT_GE(serial.report_count, 8u);
  // Every report names a dominant segment and edge.
  EXPECT_NE(serial.reports_json.find("\"dominant_segment\":\""),
            std::string::npos);
  EXPECT_NE(serial.reports_json.find("\"dominant_edge\":\""),
            std::string::npos);
  // The ledger series and windowed gauges made it into the export.
  EXPECT_NE(serial.metrics_json.find("net.downlink_queue_us"),
            std::string::npos);
  EXPECT_NE(serial.metrics_json.find("net.queue_delay_seconds"),
            std::string::npos);
  EXPECT_NE(serial.metrics_json.find("net.link_utilization_pm"),
            std::string::npos);
  EXPECT_NE(serial.metrics_json.find("net.inflight_hwm"), std::string::npos);
  EXPECT_NE(serial.metrics_json.find("sim.event_queue_depth_hwm"),
            std::string::npos);
  EXPECT_NE(serial.metrics_json.find("\"role\":\"oc_leader\""),
            std::string::npos);

  for (int threads : {1, 4}) {
    const SysArtifacts run = RunCompact(threads);
    EXPECT_EQ(run.reports_json, serial.reports_json) << threads << " threads";
    EXPECT_EQ(run.metrics_json, serial.metrics_json) << threads << " threads";
    EXPECT_EQ(run.sim_seconds, serial.sim_seconds) << threads << " threads";
  }
}

// Satellite: the TraceContext relay tail is observability metadata, not
// protocol traffic — enabling trace sampling must leave every modeled
// departure/delivery time, and therefore every sim-derived export, byte
// identical (DESIGN.md "Bandwidth ledger & critical path").
TEST(CriticalPathTest, TraceSamplingLeavesTimingByteIdentical) {
  unsetenv("PORYGON_THREADS");
  const SysArtifacts untraced = RunCompact(0, /*trace=*/false);
  const SysArtifacts traced = RunCompact(0, /*trace=*/true);
  EXPECT_EQ(traced.metrics_json, untraced.metrics_json);
  EXPECT_EQ(traced.reports_json, untraced.reports_json);
  EXPECT_EQ(traced.sim_seconds, untraced.sim_seconds);
  EXPECT_EQ(traced.global_root, untraced.global_root);
}

TEST(CriticalPathTest, MarksFromSpansMatchDirectMarks) {
  unsetenv("PORYGON_THREADS");
  core::PorygonSystem* sys = nullptr;
  (void)RunCompact(0, /*trace=*/true, &sys);
  ASSERT_NE(sys, nullptr);
  const auto& reports = sys->critical_path().reports();
  ASSERT_FALSE(reports.empty());
  // The analyzer's direct marks and the round trace lane record the same
  // graph; walking the exported spans reproduces the marks exactly. The
  // phase boundaries are the lane's node-"system" spans; the lane's
  // per-node instants (witness signatures, BA* votes) are skipped.
  auto marks_from_spans = [&](uint64_t round) {
    obs::RoundMarks marks;
    for (const obs::Span& s : sys->tracer()->spans()) {
      if (s.trace_id != obs::Tracer::kRoundTraceBase + round) continue;
      if (s.node != "system") continue;
      if (s.name == "round") {
        marks.start = s.start;
        marks.commit = s.end;
      } else if (s.name == "witness" && marks.witness_end == 0) {
        marks.witness_end = s.end;
      } else if (s.name == "ordering" && marks.decision == 0) {
        marks.decision = s.end;
      }
    }
    return marks;
  };
  size_t checked = 0;
  for (const obs::RoundReport& rep : reports) {
    const obs::RoundMarks from_spans = marks_from_spans(rep.marks.round);
    EXPECT_EQ(from_spans.start, rep.marks.start) << rep.marks.round;
    EXPECT_EQ(from_spans.commit, rep.marks.commit) << rep.marks.round;
    EXPECT_EQ(from_spans.witness_end, rep.marks.witness_end)
        << rep.marks.round;
    EXPECT_EQ(from_spans.decision, rep.marks.decision) << rep.marks.round;
    ++checked;
  }
  EXPECT_GE(checked, 8u);
  // The utilization counter tracks were exported as Perfetto "C" events.
  const std::string trace_json = sys->tracer()->ExportChromeJson();
  EXPECT_NE(trace_json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(trace_json.find("util_pm.oc_leader.downlink"), std::string::npos);
  delete sys;
}

// The diagnosis the analyzer exists for (ROADMAP item 1): under per-shard
// fan-in at scale, the OC leader's 1 MB/s downlink absorbs the witness
// bundles and exec results of every shard and becomes the dominant edge.
core::SystemOptions FanInOpts() {
  core::SystemOptions opt;
  opt.params.shard_bits = 5;  // 32 shards of fan-in (the fig7a top cell).
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 200;
  opt.params.storage_connections = 2;
  // Make storage links fat so the sharded fan-in, not the storage plane,
  // is the experiment variable (the fig7a sweep holds storage fixed too).
  opt.params.storage_bps = 1e9;
  opt.num_storage_nodes = 2;
  opt.num_stateless_nodes = 96;  // 3 per shard keeps the test fast.
  opt.oc_size = 8;
  opt.blocks_per_shard_round = 2;
  opt.seed = 42;
  return opt;
}

void RunFanIn(core::PorygonSystem* sys) {
  const uint64_t accounts = 100'000;
  sys->CreateAccountsLazy(accounts, 1'000'000);
  workload::WorkloadGenerator gen({.num_accounts = accounts,
                                   .shard_bits = 5,
                                   .cross_shard_ratio = 0.1,
                                   .seed = 7});
  const size_t per_round = 2 * 200 * (1u << 5);
  for (int r = 0; r < 10; ++r) {
    sys->SubmitBatch(gen.Batch(per_round));
    sys->Run(1);
  }
}

TEST(CriticalPathTest, LeaderDownlinkDominatesUnderFanIn) {
  unsetenv("PORYGON_THREADS");
  core::PorygonSystem sys(FanInOpts());
  RunFanIn(&sys);

  const obs::CriticalPathAnalyzer& cp = sys.critical_path();
  ASSERT_FALSE(cp.reports().empty());
  EXPECT_EQ(cp.DominantEdgeMode(), "oc_leader.downlink");
  EXPECT_EQ(cp.DominantSegmentMode(), "downlink_queue");
  // The bottleneck carries a meaningful utilization figure: ~40% of the
  // window in steady-state rounds (warmup rounds dilute the mean).
  EXPECT_GT(cp.MeanUtilization("oc_leader.downlink"), 0.25);
  ASSERT_NE(cp.latest(), nullptr);
  EXPECT_GT(cp.latest()->dominant_edge_share_pm, 300u);
}

// The fix for that diagnosis: the same deployment under tree dissemination
// routes per-shard fan-in through aggregation relays, so the leader's
// downlink stops being the modal dominant edge and its utilization falls
// well below the star's (ISSUE: break the OC fan-in wall). Relay duty is
// attributed to its own node role in the ledger exports.
TEST(CriticalPathTest, TreeDisseminationRelievesLeaderDownlink) {
  unsetenv("PORYGON_THREADS");
  core::SystemOptions direct_opt = FanInOpts();
  core::PorygonSystem direct(direct_opt);
  RunFanIn(&direct);
  const double star_util =
      direct.critical_path().MeanUtilization("oc_leader.downlink");

  core::SystemOptions tree_opt = FanInOpts();
  auto spec = net::DisseminationSpec::Parse("tree");
  ASSERT_TRUE(spec.ok());
  tree_opt.dissemination = *spec;
  core::PorygonSystem tree(tree_opt);
  RunFanIn(&tree);

  const obs::CriticalPathAnalyzer& cp = tree.critical_path();
  ASSERT_FALSE(cp.reports().empty());
  EXPECT_NE(cp.DominantEdgeMode(), "oc_leader.downlink");
  // With this deployment's tiny 3-node EC cohorts the per-shard aggregates
  // still save ~40% of the leader's downlink (full 10-node cohorts, as in
  // fig7a, cut it by ~2.6x).
  EXPECT_LT(cp.MeanUtilization("oc_leader.downlink"), star_util * 0.75);
  // Aggregation still moves the bits somewhere useful: the run commits.
  EXPECT_GT(tree.metrics().committed_txs(), 0u);
  // Relay duty shows up as its own role in the per-role exports.
  EXPECT_NE(tree.metrics().ToJson().find("\"role\":\"relay\""),
            std::string::npos);
}

}  // namespace
}  // namespace porygon
