// The Porygon benchmark program: one workload per process, measured over a
// steady-state window of protocol rounds.
//
//   porygon_bench --workload=<name> [--seed=N] [--seconds=S] [--trace]
//                 [--quick] [--out-dir=<dir>]
//
// A run drives independent replicas of one workload, each a deployment
// built through the public PorygonSystem API with its own seeds derived
// from --seed: 4 warm-up rounds (pipeline depth 3, plus 1), then a fixed
// window of measured rounds. Every sim-derived metric is a difference
// between registry snapshots taken at the window's edges, so it is exact
// for a given seed; the run reports its median over replicas. --seconds
// scales the replica count (25 s = the count in the workload table).
//
// Output: one `workload metric value unit` line per metric, then one JSON
// line {"correct", "attempted", "failed", "metrics"}. Untraced runs report
// the end-to-end metrics. --trace measures replica 0 twice at the same
// seed, untraced and then traced (sim tracer + host spans around each call
// into a layer + replay probes), checks that every sim-derived metric is
// byte-identical between the two, and reports the per-layer metrics.
// --quick is a smoke pass (2 warm-up + 2 measured rounds) that reports both
// sets. Any failed check prints the workload, replica and round to stderr
// and exits 1 without a result line.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/erasure.h"
#include "common/rng.h"
#include "core/messages.h"
#include "core/system.h"
#include "crypto/provider.h"
#include "crypto/sha256.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "state/account.h"
#include "state/sharded_state.h"
#include "storage/db.h"
#include "storage/env.h"
#include "tx/blocks.h"
#include "window.h"
#include "workload/soak.h"
#include "workload/traffic.h"

namespace porygon::benchmark {
namespace {

using WallClock = std::chrono::steady_clock;

double MsSince(WallClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - t0)
      .count();
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

// --------------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------------

constexpr int kWarmupRounds = 4;
constexpr int kQuickRounds = 2;
/// --seconds at which each workload runs its listed replica count; other
/// values scale the count (at least one replica).
constexpr double kReferenceSeconds = 25;
/// Open-loop arrivals are released on the sim clock at this interval.
constexpr int64_t kArrivalTickMs = 100;
/// Each Run(1) must commit within this much sim time.
constexpr net::SimTime kRoundCapUs = 120'000'000;
/// Replay probes keep at most this many of the window's transactions.
constexpr size_t kProbeTxCap = 64'000;
constexpr uint64_t kAccountBalance = 1'000'000'000;

struct Workload {
  const char* name;
  int shard_bits;
  size_t block_tx_limit;
  bool tree;
  /// Open loop: offered load in tx/s. 0 = closed loop.
  double rate_tps;
  /// Closed loop: the batch submitted before each round, as a share of block
  /// capacity (blocks per shard round x block_tx_limit x shards). It stays
  /// below 1: at exactly 1, per-shard demand exceeds what a round packages
  /// about half the time, the leftover pool random-walks, and the latency
  /// tail then depends on the seed rather than on the protocol.
  double closed_load;
  const char* traffic;    ///< workload::Spec clauses (seed derived).
  const char* faults;     ///< net::FaultPlan clauses ("" = none).
  const char* adversary;  ///< core::AdversarySpec clauses ("" = honest).
  uint64_t epoch_length;
  int window_rounds;
  /// Independent deployments per run at --seconds=kReferenceSeconds. Sim
  /// metrics vary more between deployments (seeds) than between rounds of
  /// one deployment, so a run reports the median over replicas.
  int replicas;
};

// Why each workload exists, and how it deviates from a plain Fig 7a point,
// is recorded in README.md next to this table.
const Workload kWorkloads[] = {
    {"uniform_8shard", 3, 2000, false, 0, 0.95,
     "uniform,accounts:1000000,cross:0.1", "", "", 0, 10, 2},
    {"uniform_32shard_tree", 5, 1000, true, 0, 0.5,
     "uniform,accounts:1000000,cross:0.2", "", "", 0, 8, 2},
    {"zipf_2k", 2, 2000, false, 2000, 0, "zipf:0.8,accounts:1000000", "", "",
     0, 16, 3},
    {"chaos_1k", 2, 2000, false, 1000, 0, "uniform,accounts:1000000,cross:0.2",
     "loss:0.01,jitter:300,crash:0:45,recover:0:75",
     "stateless:equivocate,alpha:0.2", 10, 40, 3},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Independent seeds for one replica's system, traffic, fault, adversary
/// and probe streams, all drawn from the one --seed.
struct Seeds {
  uint64_t system, traffic, faults, adversary, probes;

  Seeds(uint64_t seed, int replica) {
    Rng rng(seed + static_cast<uint64_t>(replica) * 0x9e3779b97f4a7c15ULL);
    system = rng.NextU64();
    traffic = rng.NextU64();
    faults = rng.NextU64();
    adversary = rng.NextU64();
    probes = rng.NextU64();
  }
};

/// Every SystemOptions and Params field is spelled out here, so no default
/// changed elsewhere in the repository can move this benchmark's numbers.
Result<core::SystemOptions> BuildOptions(const Workload& w, const Seeds& seeds,
                                         bool traced) {
  core::SystemOptions o;
  core::Params& p = o.params;
  p.shard_bits = w.shard_bits;
  p.ordering_fraction = 0.1;
  p.execution_fraction = 0.6;
  p.witness_threshold = 2;
  p.execution_threshold = 2;
  p.pipeline_depth = 3;
  p.block_tx_limit = w.block_tx_limit;
  p.cross_shard_retry_rounds = 2;
  p.stateless_bps = 1e6;
  p.storage_bps = 100e6;
  p.latency_us = 500;
  p.latency_jitter_us = 100;
  p.storage_connections = 2;
  p.reconfig_interval_us = 2'000'000;
  p.phase_interval_us = 1'700'000;
  p.consensus_backoff_cap_us = 6'800'000;
  p.storage_timeout_us = 2'500'000;
  p.storage_backoff_cap_us = 10'000'000;
  p.storage_failover_strikes = 3;
  p.storage_retry_limit = 5;
  p.storage_watchdog_us = 8'000'000;
  p.storage_resync_budget = 3;
  p.storage_probe_us = 4'000'000;
  p.storage_probe_limit = 4;
  p.malicious_stateless_fraction = 0;
  p.malicious_storage_fraction = 0;

  o.num_storage_nodes = 2;
  o.num_stateless_nodes = 10 << w.shard_bits;
  o.oc_size = 10;
  o.blocks_per_shard_round = 2;
  o.epoch_length = w.epoch_length;
  o.seed = seeds.system;
  o.worker_threads = 2;
  o.use_ed25519 = false;
  o.faithful_execution = false;
  o.state_proof_bytes_per_account = 128;
  o.malicious_storage_fraction = 0;
  o.malicious_stateless_fraction = 0;
  if (w.adversary[0] != '\0') {
    PORYGON_ASSIGN_OR_RETURN(o.adversary,
                             core::AdversarySpec::Parse(w.adversary));
    o.adversary.seed = seeds.adversary;
  }
  o.dissemination.mode =
      w.tree ? net::DisseminationMode::kTree : net::DisseminationMode::kDirect;
  o.dissemination.chunk_k = 4;
  o.dissemination.chunk_n = 6;
  o.dissemination.relay_strikes = 2;
  o.mean_session_s = 0;
  o.trace.enabled = traced;
  o.trace.sample_transactions = 64;
  o.trace.max_spans = 1 << 16;
  PORYGON_RETURN_IF_ERROR(o.Validate());
  return o;
}

// --------------------------------------------------------------------------
// Host spans (traced runs): name, start, end and parent of every call the
// benchmark makes into a layer, kept in memory and written as Chrome trace JSON
// when the run ends.
// --------------------------------------------------------------------------

class SpanRecorder {
 public:
  SpanRecorder() : origin_(WallClock::now()) {}

  size_t Begin(const char* name) {
    const size_t parent = open_.empty() ? 0 : open_.back() + 1;
    spans_.push_back({name, NowUs(), 0, parent});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void End(size_t idx) {
    spans_[idx].end_us = NowUs();
    if (!open_.empty() && open_.back() == idx) open_.pop_back();
  }

  /// Chrome trace_event JSON: one "X" event per span on one thread, so
  /// nesting renders as a stack; args carry the span and parent ids
  /// (1-based; parent 0 = root).
  std::string ChromeJson() const {
    std::string out = "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%lld,\"dur\":%lld,\"args\":{\"id\":%zu,"
                    "\"parent\":%zu}}",
                    i == 0 ? "" : ",\n", s.name,
                    static_cast<long long>(s.start_us),
                    static_cast<long long>(s.end_us - s.start_us), i + 1,
                    s.parent);
      out += buf;
    }
    out += "]}\n";
    return out;
  }

 private:
  struct Span {
    const char* name;
    int64_t start_us;
    int64_t end_us;
    size_t parent;
  };

  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               WallClock::now() - origin_)
        .count();
  }

  WallClock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Records one span for its scope; inert with a null recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), idx_(rec != nullptr ? rec->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  size_t idx_;
};

// --------------------------------------------------------------------------
// Deployments
// --------------------------------------------------------------------------

struct RoundTiming {
  double round_ms = 0;   ///< Whole round: generation, submission and Run.
  double run_ms = 0;     ///< The Run(1) call alone.
  double gen_ms = 0;     ///< TrafficModel::Batch.
  double submit_ms = 0;  ///< SubmitBatch.
  double inner_ms = 0;   ///< Generation + submission that ran inside Run.
  uint64_t txs = 0;      ///< Transactions generated this round.
};

/// One system plus its load generator. With a span recorder the deployment
/// is traced: the sim tracer is on, every call into a layer records a host
/// span, and generated transactions are kept as replay-probe inputs.
class Deployment {
 public:
  Deployment(const Workload& w, const Seeds& seeds, SpanRecorder* spans)
      : w_(w),
        seeds_(seeds),
        spans_(spans),
        carry_(w.rate_tps, kArrivalTickMs) {}

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Construction, fault plan, lazy account funding and (open loop) the
  /// first arrival tick.
  Status Build() {
    PORYGON_ASSIGN_OR_RETURN(core::SystemOptions opt,
                             BuildOptions(w_, seeds_, spans_ != nullptr));
    PORYGON_ASSIGN_OR_RETURN(workload::Spec spec,
                             workload::Spec::Parse(w_.traffic));
    spec.shard_bits = w_.shard_bits;
    spec.seed = seeds_.traffic;
    sys_ = std::make_unique<core::PorygonSystem>(opt);
    if (w_.faults[0] != '\0') {
      PORYGON_ASSIGN_OR_RETURN(net::FaultPlan plan,
                               net::FaultPlan::Parse(w_.faults));
      plan.seed = seeds_.faults;
      PORYGON_RETURN_IF_ERROR(sys_->InjectFaults(plan));
    }
    sys_->CreateAccountsLazy(spec.num_accounts, kAccountBalance);
    model_ = spec.BuildModel();
    if (open_loop()) ScheduleTick();
    return Status::Ok();
  }

  bool open_loop() const { return w_.rate_tps > 0; }
  core::PorygonSystem& sys() { return *sys_; }

  /// Transactions generated so far (traced deployments only, capped).
  const std::vector<tx::Transaction>& captured() const { return captured_; }

  /// Sim time (seconds) of every commit so far, genesis first.
  const std::vector<double>& commit_times() const { return commit_times_; }

  /// Drives one round: the closed-loop batch (if any), then Run(1) under the
  /// sim-time cap. Fails if the round did not commit in time.
  Status RunRound(RoundTiming* t) {
    if (commit_times_.empty()) commit_times_.push_back(sys_->sim_seconds());
    cur_ = RoundTiming{};
    const auto t0 = WallClock::now();
    const size_t before = sys_->chain().size();
    {
      ScopedSpan round_span(spans_, "round");
      if (!open_loop()) {
        const size_t capacity =
            sys_->options().blocks_per_shard_round *
            sys_->params().block_tx_limit *
            static_cast<size_t>(sys_->params().shard_count());
        Generate(static_cast<size_t>(w_.closed_load *
                                     static_cast<double>(capacity)));
      }
      ScopedSpan run_span(spans_, "PorygonSystem::Run");
      const auto r0 = WallClock::now();
      in_run_ = true;
      sys_->Run(1, sys_->events()->now() + kRoundCapUs);
      in_run_ = false;
      cur_.run_ms = MsSince(r0);
    }
    cur_.round_ms = MsSince(t0);
    *t = cur_;
    // Before Run's first call the chain is empty; it then seals genesis.
    const size_t expected = before == 0 ? 2 : before + 1;
    if (sys_->chain().size() != expected) {
      return Status::Timeout("no commit within " +
                             std::to_string(kRoundCapUs / 1'000'000) +
                             " s of sim time");
    }
    commit_times_.push_back(sys_->sim_seconds());
    return Status::Ok();
  }

 private:
  void Generate(size_t n) {
    const auto g0 = WallClock::now();
    std::vector<tx::Transaction> batch;
    {
      ScopedSpan span(spans_, "TrafficModel::Batch");
      batch = model_->Batch(n);
    }
    const double gen = MsSince(g0);
    const auto s0 = WallClock::now();
    {
      ScopedSpan span(spans_, "PorygonSystem::SubmitBatch");
      sys_->SubmitBatch(batch);
    }
    const double submit = MsSince(s0);
    cur_.gen_ms += gen;
    cur_.submit_ms += submit;
    if (in_run_) cur_.inner_ms += gen + submit;
    cur_.txs += batch.size();
    if (spans_ != nullptr && captured_.size() < kProbeTxCap) {
      const size_t take = std::min(kProbeTxCap - captured_.size(), batch.size());
      captured_.insert(captured_.end(), batch.begin(), batch.begin() + take);
    }
  }

  // Open loop: a self-rescheduling tick on the sim clock releases the
  // transactions that fell due since the previous tick, so a stalled
  // protocol keeps receiving load (and the round cap bounds the stall).
  void ScheduleTick() {
    sys_->events()->ScheduleAfter(kArrivalTickMs * 1000, [this] {
      Generate(carry_.Next());
      ScheduleTick();
    });
  }

  const Workload& w_;
  Seeds seeds_;
  SpanRecorder* spans_;
  ArrivalCarry carry_;
  std::unique_ptr<workload::TrafficModel> model_;
  RoundTiming cur_;
  bool in_run_ = false;
  std::vector<tx::Transaction> captured_;
  std::vector<double> commit_times_;
  // Declared last so it is destroyed first: its queued arrival callbacks
  // point into this object.
  std::unique_ptr<core::PorygonSystem> sys_;
};

// --------------------------------------------------------------------------
// Registry snapshots and window deltas
// --------------------------------------------------------------------------

std::string LabelString(const obs::Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ',';
    out += k + "=" + v;
  }
  return out;
}

struct Snapshot {
  double sim_s = 0;
  /// Counter totals by name (summed over labels).
  std::map<std::string, uint64_t> counters;
  /// Histograms by "name|labels".
  std::map<std::string, obs::Histogram> hists;
  /// Volatile runtime.wall_us gauges by phase label.
  std::map<std::string, double> wall_us;
  size_t reports = 0;  ///< Critical-path reports retained so far.
  uint64_t pool_depth = 0;

  uint64_t Get(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

Snapshot Take(core::PorygonSystem& sys) {
  Snapshot s;
  s.sim_s = sys.sim_seconds();
  const obs::MetricsRegistry& reg = *sys.metrics_registry();
  reg.VisitCounters([&s](const std::string& name, const obs::Labels&,
                         const obs::Counter& c) {
    s.counters[name] += c.value();
  });
  reg.VisitHistograms([&s](const std::string& name, const obs::Labels& labels,
                           const obs::Histogram& h) {
    s.hists.emplace(name + "|" + LabelString(labels), h);
  });
  reg.VisitVolatileGauges([&s](const std::string& name,
                               const obs::Labels& labels,
                               const obs::Gauge& g) {
    if (name == "runtime.wall_us") s.wall_us[LabelString(labels)] = g.value();
  });
  s.reports = sys.critical_path().reports().size();
  for (int i = 0; i < sys.num_storage_nodes(); ++i) {
    s.pool_depth += sys.storage_node(i)->pool_pending();
  }
  return s;
}

/// One histogram series' change across the window.
struct HistWindow {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  double sum = 0;

  double Percentile(double p) const {
    return PercentileFromBuckets(bounds, counts, p);
  }
  double Mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0;
  }
};

struct Window {
  const Snapshot& a;
  const Snapshot& b;
  int rounds;

  uint64_t D(const std::string& name) const { return b.Get(name) - a.Get(name); }
  double DPerRound(const std::string& name) const {
    return static_cast<double>(D(name)) / rounds;
  }

  /// Wall milliseconds per round spent inside one runtime.wall_us phase
  /// ("" sums every phase).
  double WallMsPerRound(const std::string& phase) const {
    double total = 0;
    for (const auto& [labels, v] : b.wall_us) {
      if (!phase.empty() && labels != "phase=" + phase) continue;
      auto it = a.wall_us.find(labels);
      total += v - (it == a.wall_us.end() ? 0 : it->second);
    }
    return total / 1e3 / rounds;
  }

  HistWindow H(const std::string& key) const {
    HistWindow w;
    auto hb = b.hists.find(key);
    if (hb == b.hists.end()) return w;
    auto ha = a.hists.find(key);
    const bool had = ha != a.hists.end();
    w.bounds = hb->second.bounds();
    w.counts = BucketDelta(hb->second.bucket_counts(),
                           had ? ha->second.bucket_counts()
                               : std::vector<uint64_t>{});
    w.count = hb->second.count() - (had ? ha->second.count() : 0);
    w.sum = hb->second.sum() - (had ? ha->second.sum() : 0);
    return w;
  }
};

// --------------------------------------------------------------------------
// Metrics
// --------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool sim;  ///< Sim-derived: byte-identical for a given seed.
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Share(uint64_t part, uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0;
}

/// The window's slice of the per-round critical-path reports: segment
/// means, mean link utilizations and the modal dominant edge.
struct PathStats {
  std::string dominant_edge;
  std::map<std::string, double> mean_util;  ///< By link, 0..1.
  double round_s = 0, compute_s = 0, serialization_s = 0;
  double uplink_queue_s = 0, downlink_queue_s = 0, consensus_wait_s = 0;

  double Util(const char* link) const {
    auto it = mean_util.find(link);
    return it == mean_util.end() ? 0 : it->second;
  }
};

PathStats CriticalPath(const core::PorygonSystem& sys, const Window& win) {
  PathStats m;
  const auto& reports = sys.critical_path().reports();
  std::map<std::string, int> edge_votes;
  std::map<std::string, std::pair<double, int>> util;
  int n = 0;
  for (size_t i = win.a.reports; i < win.b.reports && i < reports.size();
       ++i) {
    const obs::RoundReport& r = reports[i];
    ++n;
    ++edge_votes[r.dominant_edge];
    m.round_s += static_cast<double>(r.window_us) / 1e6;
    m.compute_s += static_cast<double>(r.compute_us) / 1e6;
    m.serialization_s += static_cast<double>(r.serialization_us) / 1e6;
    m.uplink_queue_s += static_cast<double>(r.uplink_queue_us) / 1e6;
    m.downlink_queue_s += static_cast<double>(r.downlink_queue_us) / 1e6;
    m.consensus_wait_s += static_cast<double>(r.consensus_wait_us) / 1e6;
    for (size_t j = 0; j < r.links.size(); ++j) {
      auto& [total, count] = util[r.links[j].link];
      total += r.link_util_pm[j] / 1000.0;
      ++count;
    }
  }
  if (n > 0) {
    for (double* v : {&m.round_s, &m.compute_s, &m.serialization_s,
                      &m.uplink_queue_s, &m.downlink_queue_s,
                      &m.consensus_wait_s}) {
      *v /= n;
    }
  }
  int best = 0;
  for (const auto& [edge, votes] : edge_votes) {  // Ties: smallest name.
    if (votes > best) {
      best = votes;
      m.dominant_edge = edge;
    }
  }
  for (const auto& [link, tc] : util) m.mean_util[link] = tc.first / tc.second;
  return m;
}

struct WindowResult {
  std::vector<Metric> end_to_end;  ///< Without setup_s / peak_rss_mb.
  std::vector<Metric> per_layer;   ///< Without probes / trace overhead.
  std::string chain_digest;
  std::string dominant_edge;
  uint64_t latency_samples = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Every sim-derived metric at full precision plus the chain digest: two
  /// runs at the same seed must produce the same string.
  std::string SimDigest() const {
    std::string out = chain_digest + " " + dominant_edge;
    for (const auto* set : {&end_to_end, &per_layer}) {
      for (const Metric& m : *set) {
        if (m.sim) out += "\n" + m.name + "=" + Num(m.value);
      }
    }
    return out;
  }
};

/// `timing` covers the window's rounds; `commits` the commit times from
/// the last warm-up commit to the window's last commit.
WindowResult Measure(const core::PorygonSystem& sys, const Window& win,
                     const std::vector<RoundTiming>& timing,
                     const std::vector<double>& commits) {
  WindowResult r;
  const double dt = win.b.sim_s - win.a.sim_s;
  const uint64_t committed = win.D("porygon.committed_txs");
  const uint64_t discarded = win.D("porygon.discarded_txs");
  const uint64_t failed = win.D("porygon.failed_txs");
  const uint64_t submitted = win.D("porygon.submitted_txs");
  const uint64_t rejected = win.D("porygon.rejected_txs");
  const uint64_t terminal = committed + discarded + failed;
  const HistWindow user = win.H("porygon.latency_seconds|kind=user");
  double max_gap = 0;
  for (size_t i = 1; i < commits.size(); ++i) {
    max_gap = std::max(max_gap, commits[i] - commits[i - 1]);
  }
  std::vector<double> round_ms;
  for (const RoundTiming& t : timing) round_ms.push_back(t.round_ms);
  r.latency_samples = user.count;
  r.attempted = submitted + rejected;
  r.failed = rejected;
  r.chain_digest = crypto::HashToHex(sys.chain().back().Hash());
  r.end_to_end = {
      {"goodput_tps", WindowRate(committed, dt), "tx/s", true},
      {"latency_p50_s", user.Percentile(50), "s", true},
      {"latency_p99_s", user.Percentile(99), "s", true},
      {"latency_mean_s", user.Mean(), "s", true},
      {"commit_share", Share(committed, terminal + rejected), "ratio", true},
      {"max_commit_gap_s", max_gap, "s", true},
      {"host_round_ms", Median(round_ms), "ms", false},
  };

  const PathStats cp = CriticalPath(sys, win);
  r.dominant_edge = cp.dominant_edge;
  double gen_ms = 0, submit_ms = 0, run_ms = 0, inner_ms = 0;
  uint64_t txs = 0;
  for (const RoundTiming& t : timing) {
    gen_ms += t.gen_ms;
    submit_ms += t.submit_ms;
    run_ms += t.run_ms;
    inner_ms += t.inner_ms;
    txs += t.txs;
  }
  const double us_per_tx = txs > 0 ? 1e3 / static_cast<double>(txs) : 0;
  const auto phase_mean = [&win](int phase) {
    return win
        .H(std::string("porygon.phase_seconds|phase=") +
           core::PhaseLabelName(phase))
        .Mean();
  };
  const auto count = [&win](const char* name) {
    return static_cast<double>(win.D(name));
  };
  r.per_layer = {
      {"net.leader_uplink_util", cp.Util("oc_leader.uplink"), "ratio", true},
      {"net.leader_downlink_util", cp.Util("oc_leader.downlink"), "ratio",
       true},
      {"net.stateless_downlink_util", cp.Util("stateless.downlink"), "ratio",
       true},
      {"net.bytes_per_tx",
       count("net.sent_bytes") /
           static_cast<double>(std::max<uint64_t>(committed, 1)),
       "B", true},
      {"net.uplink_queue_s", cp.uplink_queue_s, "s", true},
      {"net.downlink_queue_s", cp.downlink_queue_s, "s", true},
      {"net.serialization_s", cp.serialization_s, "s", true},
      {"net.queue_delay_up_p99_s",
       win.H("net.queue_delay_seconds|dir=up").Percentile(99), "s", true},
      {"net.queue_delay_down_p99_s",
       win.H("net.queue_delay_seconds|dir=down").Percentile(99), "s", true},
      {"net.events_per_round", win.DPerRound("sim.events_drained"), "count",
       true},
      {"net.msgs_per_round", win.DPerRound("net.sent_messages"), "count",
       true},
      {"net.dropped_msgs", count("net.dropped_messages"), "count", true},
      {"consensus.wait_s", cp.consensus_wait_s, "s", true},
      {"consensus.timeouts", count("consensus.timeouts"), "count", true},
      {"consensus.step_syncs", count("consensus.step_syncs"), "count", true},
      {"consensus.cert_adoptions", count("consensus.cert_adoptions"), "count",
       true},
      {"consensus.votes_per_round", win.DPerRound("consensus.votes_received"),
       "count", true},
      {"core.round_s", cp.round_s, "s", true},
      {"core.compute_s", cp.compute_s, "s", true},
      {"core.phase_witness_s", phase_mean(0), "s", true},
      {"core.phase_ordering_s", phase_mean(1), "s", true},
      {"core.phase_execution_s", phase_mean(2), "s", true},
      {"core.phase_commit_s", phase_mean(3), "s", true},
      {"core.discard_share", Share(discarded, terminal), "ratio", true},
      {"core.nonce_fail_share", Share(failed, terminal), "ratio", true},
      {"core.pool_depth", static_cast<double>(win.b.pool_depth), "count",
       true},
      {"core.backlog_growth_share",
       submitted > 0 ? (static_cast<double>(win.b.pool_depth) -
                        static_cast<double>(win.a.pool_depth)) /
                           static_cast<double>(submitted)
                     : 0,
       "ratio", true},
      {"core.failover_rotations", count("core.failover.rotations"), "count",
       true},
      {"core.failover_retransmits", count("core.failover.retransmits"),
       "count", true},
      {"core.failover_resyncs", count("core.failover.resyncs"), "count", true},
      {"core.rejected", count("core.rejected"), "count", true},
      {"core.epochs", count("core.epochs"), "count", true},
      {"core.submit_us_per_tx", submit_ms * us_per_tx, "us", false},
      {"core.run_unattributed_ms_per_round",
       (run_ms - inner_ms) / win.rounds - win.WallMsPerRound(""), "ms", false},
      {"runtime.exec_ms_per_round", win.WallMsPerRound("exec"), "ms", false},
      {"runtime.verify_ms_per_round", win.WallMsPerRound("verify"), "ms",
       false},
      {"storage.flushes_per_round", win.DPerRound("db.flushes"), "count",
       true},
      {"workload.gen_us_per_tx", gen_ms * us_per_tx, "us", false},
  };
  return r;
}

// --------------------------------------------------------------------------
// Replay probes: layer public functions timed on the window's own inputs.
// --------------------------------------------------------------------------

/// Marks `v` as used so the compiler cannot drop the call that produced it.
template <typename T>
void Keep(const T& v) {
  asm volatile("" : : "m"(v) : "memory");
}

/// Calls `pass` (which performs `ops` operations) until at least 20 ms have
/// elapsed and returns nanoseconds per operation.
template <typename F>
double NsPerOp(F&& pass, size_t ops) {
  const auto t0 = WallClock::now();
  size_t done = 0;
  double ms = 0;
  do {
    pass();
    done += ops;
    ms = MsSince(t0);
  } while (ms < 20);
  return ms * 1e6 / static_cast<double>(std::max<size_t>(done, 1));
}

Status RunProbes(const Workload& w, const std::vector<tx::Transaction>& txs,
                 uint64_t seed, SpanRecorder* spans,
                 std::vector<Metric>* out) {
  if (txs.size() < 2) return Status::FailedPrecondition("no probe inputs");
  const auto add = [out](const char* name, double v, const char* unit) {
    out->push_back({name, v, unit, false});
  };

  {
    ScopedSpan span(spans, "probe:Transaction::Id");
    add("tx.id_ns", NsPerOp([&] {
          for (const tx::Transaction& t : txs) Keep(t.Id()[0]);
        }, txs.size()),
        "ns");
  }

  // The window's transactions packed into 2,000-tx blocks, as storage
  // nodes package them.
  std::vector<tx::TransactionBlock> blocks;
  for (size_t i = 0; i < txs.size(); i += 2000) {
    tx::TransactionBlock b;
    b.header.round_created = blocks.size();
    b.header.shard = state::ShardOfAccount(txs[i].from, w.shard_bits);
    b.transactions.assign(txs.begin() + i,
                          txs.begin() + std::min(txs.size(), i + 2000));
    b.SealHeader();
    blocks.push_back(std::move(b));
  }
  std::vector<Bytes> encoded;
  for (const tx::TransactionBlock& b : blocks) encoded.push_back(b.Encode());
  size_t encoded_bytes = 0;
  for (const Bytes& e : encoded) encoded_bytes += e.size();

  {
    ScopedSpan span(spans, "probe:TransactionBlock::BodyMatchesHeader");
    add("tx.block_verify_us", NsPerOp([&] {
          for (const auto& b : blocks) Keep(b.BodyMatchesHeader());
        }, blocks.size()) / 1e3,
        "us");
  }
  {
    ScopedSpan span(spans, "probe:TransactionBlock::Encode");
    add("tx.block_encode_us", NsPerOp([&] {
          for (const auto& b : blocks) Keep(b.Encode().size());
        }, blocks.size()) / 1e3,
        "us");
  }
  {
    ScopedSpan span(spans, "probe:TransactionBlock::Decode");
    bool ok = true;
    add("tx.block_decode_us", NsPerOp([&] {
          for (const Bytes& e : encoded) {
            auto d = tx::TransactionBlock::Decode(e);
            ok = ok && d.ok();
            if (d.ok()) Keep(d->transactions.size());
          }
        }, encoded.size()) / 1e3,
        "us");
    if (!ok) return Status::Corruption("block decode probe failed");
  }
  {
    ScopedSpan span(spans, "probe:Sha256::Hash");
    add("crypto.sha256_ns_per_kb", NsPerOp([&] {
          for (const Bytes& e : encoded) Keep(crypto::Sha256::Hash(e)[0]);
        }, std::max<size_t>(encoded_bytes / 1024, 1)),
        "ns");
  }

  // Signatures over the transactions' own encodings (FastProvider, as the
  // deployments use).
  crypto::FastProvider provider;
  Rng rng(seed);
  const crypto::KeyPair kp = provider.GenerateKeyPair(&rng);
  const size_t n_sig = std::min<size_t>(txs.size(), 4096);
  std::vector<Bytes> msgs;
  for (size_t i = 0; i < n_sig; ++i) msgs.push_back(txs[i].Encode());
  std::vector<crypto::Signature> sigs(n_sig);
  {
    ScopedSpan span(spans, "probe:FastProvider::Sign");
    add("crypto.sign_ns", NsPerOp([&] {
          for (size_t i = 0; i < n_sig; ++i) {
            sigs[i] = provider.Sign(kp.private_key, msgs[i]);
          }
        }, n_sig),
        "ns");
  }
  {
    ScopedSpan span(spans, "probe:FastProvider::Verify");
    bool ok = true;
    add("crypto.verify_ns", NsPerOp([&] {
          for (size_t i = 0; i < n_sig; ++i) {
            ok = provider.Verify(kp.public_key, msgs[i], sigs[i]) && ok;
          }
        }, n_sig),
        "ns");
    if (!ok) return Status::Corruption("signature probe failed");
  }

  // State: the window's writes (sender and receiver accounts) applied per
  // block, one batch per shard, as execution does.
  {
    ScopedSpan span(spans, "probe:ShardedState::PutAccountBatch");
    state::ShardedState st(w.shard_bits);
    const auto t0 = WallClock::now();
    size_t keys = 0;
    for (const tx::TransactionBlock& b : blocks) {
      std::map<uint32_t, std::vector<std::pair<state::AccountId,
                                               state::Account>>> writes;
      for (const tx::Transaction& t : b.transactions) {
        writes[st.ShardOf(t.from)].push_back(
            {t.from, state::Account{kAccountBalance - t.amount, t.nonce + 1}});
        writes[st.ShardOf(t.to)].push_back(
            {t.to, state::Account{kAccountBalance + t.amount, 0}});
      }
      for (const auto& [shard, ws] : writes) {
        st.PutAccountBatch(shard, ws);
        keys += ws.size();
      }
    }
    add("state.smt_put_ns_per_key",
        MsSince(t0) * 1e6 / static_cast<double>(std::max<size_t>(keys, 1)),
        "ns");
    add("state.smt_root_us",
        NsPerOp([&] { Keep(st.GlobalRoot()[0]); }, 1) / 1e3, "us");
  }

  // Storage engine: the same accounts written and read back.
  {
    storage::MemEnv env;
    auto db = storage::Db::Open(&env, "/probe");
    if (!db.ok()) return db.status();
    std::vector<Bytes> keys;
    for (const tx::Transaction& t : txs) keys.push_back(state::AccountKey(t.to));
    const Bytes value = state::EncodeAccount({kAccountBalance, 1});
    {
      ScopedSpan span(spans, "probe:Db::Put");
      const auto t0 = WallClock::now();
      for (const Bytes& k : keys) {
        PORYGON_RETURN_IF_ERROR((*db)->Put(k, value));
      }
      add("storage.db_put_ns",
          MsSince(t0) * 1e6 / static_cast<double>(keys.size()), "ns");
    }
    {
      ScopedSpan span(spans, "probe:Db::Get");
      bool ok = true;
      add("storage.db_get_ns", NsPerOp([&] {
            for (const Bytes& k : keys) ok = (*db)->Get(k).ok() && ok;
          }, keys.size()),
          "ns");
      if (!ok) return Status::Corruption("db get probe missed a key");
    }
  }

  // Erasure coding of block bodies at the tree geometry (4 of 6), decoded
  // from two data chunks plus both parity chunks.
  {
    std::vector<std::vector<Bytes>> chunks;
    {
      ScopedSpan span(spans, "probe:erasure::Encode");
      bool ok = true;
      add("common.erasure_encode_us", NsPerOp([&] {
            chunks.clear();
            for (const Bytes& e : encoded) {
              auto c = erasure::Encode(e, 4, 6);
              ok = ok && c.ok();
              if (c.ok()) chunks.push_back(std::move(*c));
            }
          }, encoded.size()) / 1e3,
          "us");
      if (!ok) return Status::Internal("erasure encode probe failed");
    }
    ScopedSpan span(spans, "probe:erasure::Decode");
    bool ok = true;
    add("common.erasure_decode_us", NsPerOp([&] {
          for (size_t i = 0; i < chunks.size(); ++i) {
            std::vector<std::optional<Bytes>> have(chunks[i].begin(),
                                                   chunks[i].end());
            have[0].reset();
            have[1].reset();
            auto d = erasure::Decode(have, 4, 6);
            ok = ok && d.ok() && *d == encoded[i];
          }
        }, chunks.size()) / 1e3,
        "us");
    if (!ok) return Status::Corruption("erasure decode probe mismatch");
  }
  return Status::Ok();
}

// --------------------------------------------------------------------------
// One replica: build, warm up, measure the window.
// --------------------------------------------------------------------------

struct ReplicaResult {
  WindowResult window;
  std::vector<double> round_ms;  ///< Host time of each window round.
  double setup_s = 0;  ///< Construction, funding and warm-up rounds.
  std::vector<Metric> probes;
  std::string sim_trace;
  std::string host_trace;
};

class Runner {
 public:
  Runner(const Workload& w, uint64_t seed) : w_(w), seed_(seed) {}

  /// Builds replica `replica`, drives `warmup` rounds, then measures a
  /// window of `window` rounds. A traced replica also records the sim
  /// trace and host spans and runs the replay probes after the window.
  Result<ReplicaResult> Replica(int replica, int warmup, int window,
                                bool traced) {
    ReplicaResult out;
    const Seeds seeds(seed_, replica);
    SpanRecorder spans;
    SpanRecorder* rec = traced ? &spans : nullptr;
    const auto t0 = WallClock::now();
    Deployment d(w_, seeds, rec);
    if (Status st = d.Build(); !st.ok()) return Fail(replica, 0, st);

    workload::InvariantChecker checker;
    uint64_t round = 0;
    RoundTiming t;
    const auto step = [&]() -> Status {
      ++round;
      PORYGON_RETURN_IF_ERROR(d.RunRound(&t));
      return CheckRound(d.sys(), &checker);
    };
    for (int i = 0; i < warmup; ++i) {
      if (Status st = step(); !st.ok()) return Fail(replica, round, st);
    }
    out.setup_s = MsSince(t0) / 1e3;

    const Snapshot a = Take(d.sys());
    const size_t first_commit = d.commit_times().size() - 1;
    std::vector<RoundTiming> timing;
    for (int i = 0; i < window; ++i) {
      if (Status st = step(); !st.ok()) return Fail(replica, round, st);
      timing.push_back(t);
      out.round_ms.push_back(t.round_ms);
    }
    if (Status st = checker.CheckChainIntegrity(d.sys()); !st.ok()) {
      return Fail(replica, round, st);
    }
    const Snapshot b = Take(d.sys());
    const std::vector<double> commits(
        d.commit_times().begin() + static_cast<long>(first_commit),
        d.commit_times().end());
    out.window = Measure(d.sys(), Window{a, b, window}, timing, commits);

    if (traced) {
      ScopedSpan span(rec, "probes");
      if (Status st = RunProbes(w_, d.captured(), seeds.probes, rec,
                                &out.probes);
          !st.ok()) {
        return Fail(replica, round, st);
      }
      out.sim_trace = d.sys().tracer()->ExportChromeJson();
      out.host_trace = spans.ChromeJson();
    }
    return out;
  }

  /// Prints every recorded failure as "FAIL workload=... round=...".
  int ReportFailures() const {
    for (const std::string& f : failures_) {
      std::fprintf(stderr, "FAIL workload=%s %s\n", w_.name, f.c_str());
    }
    return 1;
  }

 private:
  /// Cheap per-round checks: replay roots, evidence attribution and
  /// conservation (committed + discarded + failed <= submitted). Chain
  /// integrity re-hashes the whole chain, so it runs once per window.
  static Status CheckRound(core::PorygonSystem& sys,
                           workload::InvariantChecker* checker) {
    PORYGON_RETURN_IF_ERROR(checker->CheckNoReplayMismatches(sys));
    PORYGON_RETURN_IF_ERROR(checker->CheckEvidenceOnlyAgainstMalicious(sys));
    const core::SystemMetrics m = sys.metrics();
    const uint64_t terminal =
        m.committed_txs() + m.discarded_txs() + m.failed_txs();
    const uint64_t submitted =
        sys.metrics_registry()->CounterValue("porygon.submitted_txs");
    if (terminal > submitted) {
      return Status::FailedPrecondition(
          "conservation: " + std::to_string(terminal) +
          " terminal transactions exceed " + std::to_string(submitted) +
          " submitted");
    }
    return Status::Ok();
  }

  Status Fail(int replica, uint64_t round, const Status& st) {
    failures_.push_back("replica=" + std::to_string(replica) +
                        " round=" + std::to_string(round) + ": " +
                        st.ToString());
    return st;
  }

  const Workload& w_;
  uint64_t seed_;
  std::vector<std::string> failures_;
};

/// The end-to-end metrics of a run: each sim metric is the median over
/// replicas; host_round_ms pools every replica's window rounds; setup_s is
/// the median replica setup.
std::vector<Metric> EndToEnd(const std::vector<ReplicaResult>& reps) {
  std::vector<Metric> out = reps.front().window.end_to_end;
  for (size_t k = 0; k < out.size(); ++k) {
    std::vector<double> values;
    for (const ReplicaResult& r : reps) {
      values.push_back(r.window.end_to_end[k].value);
    }
    out[k].value = Median(values);
  }
  std::vector<double> rounds, setups;
  for (const ReplicaResult& r : reps) {
    rounds.insert(rounds.end(), r.round_ms.begin(), r.round_ms.end());
    setups.push_back(r.setup_s);
  }
  for (Metric& m : out) {
    if (m.name == "host_round_ms") m.value = Median(rounds);
  }
  out.push_back({"setup_s", Median(setups), "s", false});
  out.push_back({"peak_rss_mb", PeakRssMb(), "MB", false});
  return out;
}

// --------------------------------------------------------------------------
// Output
// --------------------------------------------------------------------------

void PrintLines(const Workload& w, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%s %s %.10g %s\n", w.name, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// The result line. It is printed only after every check passed, so
/// "correct" is always true; a failed check exits without it.
void PrintJson(uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(data.data(), 1, data.size(), f);
  return std::fclose(f) == 0 && n == data.size();
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: porygon_bench --workload=<name> [--seed=N] "
               "[--seconds=S] [--trace] [--quick] [--out-dir=<dir>]\n"
               "workloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// One line per replica: what a same-seed rerun must reproduce exactly (the
/// chain digest) plus the window's modal bottleneck and latency sample count.
void PrintReplica(const Workload& w, int replica, const WindowResult& r) {
  std::printf("%s replica %d chain %s edge %s latency_samples %llu\n", w.name,
              replica, r.chain_digest.c_str(), r.dominant_edge.c_str(),
              static_cast<unsigned long long>(r.latency_samples));
}

int Main(int argc, char** argv) {
  // The pool size is part of the benchmark definition; the environment
  // override must not change it.
  unsetenv("PORYGON_THREADS");

  std::string workload_name, out_dir;
  uint64_t seed = 1;
  double seconds = kReferenceSeconds;
  bool trace = false, quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* prefix) -> const char* {
      const size_t n = std::char_traits<char>::length(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      workload_name = v;
    } else if (const char* v = value("--seed=")) {
      char* end = nullptr;
      seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return Usage("bad --seed");
    } else if (const char* v = value("--seconds=")) {
      char* end = nullptr;
      seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(seconds > 0)) {
        return Usage("bad --seconds");
      }
    } else if (const char* v = value("--out-dir=")) {
      out_dir = v;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--quick") {
      quick = true;
    } else {
      return Usage(("unknown argument: " + arg).c_str());
    }
  }
  const Workload* w = FindWorkload(workload_name);
  if (w == nullptr) return Usage("missing or unknown --workload");
  Runner runner(*w, seed);
  std::printf("%s seed %llu\n", w->name,
              static_cast<unsigned long long>(seed));

  if (!trace && !quick) {
    const int replicas = std::max(
        1, static_cast<int>(std::lround(w->replicas * seconds /
                                        kReferenceSeconds)));
    std::vector<ReplicaResult> reps;
    uint64_t attempted = 0, failed = 0;
    for (int i = 0; i < replicas; ++i) {
      auto r = runner.Replica(i, kWarmupRounds, w->window_rounds, false);
      if (!r.ok()) return runner.ReportFailures();
      PrintReplica(*w, i, r->window);
      attempted += r->window.attempted;
      failed += r->window.failed;
      reps.push_back(std::move(*r));
    }
    const std::vector<Metric> e2e = EndToEnd(reps);
    PrintLines(*w, e2e);
    PrintJson(attempted, failed, e2e);
    return 0;
  }

  // Traced and quick runs measure replica 0 twice at the same seed and
  // window, untraced and then traced: the sim tracer, host spans and
  // probes must not move a single sim-derived number.
  const int warmup = quick ? kQuickRounds : kWarmupRounds;
  const int window = quick ? kQuickRounds : w->window_rounds;
  auto base = runner.Replica(0, warmup, window, false);
  if (!base.ok()) return runner.ReportFailures();
  PrintReplica(*w, 0, base->window);
  const std::vector<Metric> e2e = EndToEnd({*base});
  auto tr = runner.Replica(0, warmup, window, true);
  if (!tr.ok()) return runner.ReportFailures();
  if (tr->window.SimDigest() != base->window.SimDigest()) {
    std::fprintf(stderr,
                 "FAIL workload=%s replica=0 round=%d: traced sim metrics "
                 "differ from the untraced run\n--- untraced\n%s\n"
                 "--- traced\n%s\n",
                 w->name, warmup + window, base->window.SimDigest().c_str(),
                 tr->window.SimDigest().c_str());
    return 1;
  }
  std::printf("%s sim_metrics_identical_to_untraced yes\n", w->name);
  if (!out_dir.empty()) {
    const std::string stem = out_dir + "/" + w->name;
    if (!WriteFile(stem + ".sim_trace.json", tr->sim_trace) ||
        !WriteFile(stem + ".host_trace.json", tr->host_trace)) {
      std::fprintf(stderr, "FAIL workload=%s: cannot write traces to %s\n",
                   w->name, out_dir.c_str());
      return 1;
    }
    std::printf("%s traces %s.{sim,host}_trace.json\n", w->name,
                stem.c_str());
  }
  std::vector<Metric> shown = quick ? e2e : std::vector<Metric>{};
  shown.insert(shown.end(), tr->window.per_layer.begin(),
               tr->window.per_layer.end());
  shown.insert(shown.end(), tr->probes.begin(), tr->probes.end());
  shown.push_back({"trace.overhead_ms",
                   Median(tr->round_ms) - Median(base->round_ms), "ms",
                   false});
  PrintLines(*w, shown);
  PrintJson(base->window.attempted, base->window.failed, shown);
  return 0;
}

}  // namespace
}  // namespace porygon::benchmark

int main(int argc, char** argv) { return porygon::benchmark::Main(argc, argv); }
