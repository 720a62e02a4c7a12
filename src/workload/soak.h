#ifndef PORYGON_WORKLOAD_SOAK_H_
#define PORYGON_WORKLOAD_SOAK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"

namespace porygon::core {
class PorygonSystem;
}  // namespace porygon::core

namespace porygon::workload {

/// Reusable safety / liveness assertions shared by the chaos-soak driver
/// (bench/soak.cc) and the fault-injection / adversary test suites. Every
/// Check* method returns OkStatus or a one-line violation description; a
/// failing check is also recorded in violations(), and every call (pass or
/// fail) increments the `soak.invariant_checks` counter when a registry was
/// supplied, so exports show how much scrutiny a run actually received.
class InvariantChecker {
 public:
  struct Options {
    /// Liveness: no consecutive commit-to-commit gap may exceed this.
    double max_commit_gap_s = 60.0;
    /// Liveness: ObserveRound rounds with pending pool work but no commit
    /// progress before the pool is declared starved. Sized well above the
    /// pipeline depth (3) plus fault-recovery stalls.
    int max_starved_rounds = 24;
  };

  InvariantChecker() : InvariantChecker(Options{}, nullptr) {}
  explicit InvariantChecker(Options options,
                            obs::MetricsRegistry* registry = nullptr);

  /// Safety: every chain link holds — prev_hash matches the predecessor's
  /// hash and each block's state_root aggregates its shard roots.
  Status CheckChainIntegrity(core::PorygonSystem& sys);
  /// Safety: storage replay detected no root mismatches.
  Status CheckNoReplayMismatches(core::PorygonSystem& sys);
  /// Safety: every equivocation-evidence record accuses a node some
  /// epoch's adversary placement actually corrupted — no divergent
  /// evidence against honest-all-along nodes.
  Status CheckEvidenceOnlyAgainstMalicious(core::PorygonSystem& sys);
  /// Safety: the canonical state's total balance equals the supply funded
  /// at genesis (transfers and cross-shard update lists only move value).
  /// O(touched accounts); the violation gives the drift.
  Status CheckSupplyConserved(core::PorygonSystem& sys);
  /// Liveness: the largest consecutive commit gap stays within bounds.
  Status CheckBoundedCommitGap(core::PorygonSystem& sys);
  /// Safety (cross-run): both systems committed the same chain
  /// (length and per-round block hashes).
  Status CheckSameChain(core::PorygonSystem& a, core::PorygonSystem& b);
  /// Safety (cross-run): an observed GlobalRoot matches the reference
  /// run's at the same round.
  Status CheckRootsMatch(const crypto::Hash256& observed,
                         const crypto::Hash256& reference, uint64_t round);
  /// Liveness probe, called once per driver round: commits must keep
  /// advancing while transaction-pool work is pending; a pool that ages
  /// `max_starved_rounds` rounds without any commit progress is starved.
  Status ObserveRound(core::PorygonSystem& sys);

  /// Records a driver-observed violation the Check* methods cannot see
  /// themselves (e.g. a round failing to commit before its deadline).
  Status Violation(std::string what);

  uint64_t checks() const { return checks_; }
  const std::vector<std::string>& violations() const { return violations_; }
  bool ok() const { return violations_.empty(); }

 private:
  Status Pass();

  Options options_;
  obs::Counter* checks_counter_ = nullptr;
  uint64_t checks_ = 0;
  std::vector<std::string> violations_;
  // ObserveRound state.
  uint64_t last_committed_txs_ = 0;
  int starved_rounds_ = 0;
};

/// One chaos-soak run, as data: every knob of the long-horizon driver in a
/// single replayable string. Clauses are ';'-separated `key:value` pairs so
/// the nested comma-grammar specs (workload / faults / adversary /
/// dissemination) embed verbatim:
///
///   rounds:<n>;epoch:<n>;seed:<n>;nodes:<n>;storages:<n>;oc:<n>;
///   shardbits:<n>;tps:<f>;gap:<s>;workload:<spec>;faults:<spec>;
///   adversary:<spec>;dissemination:<spec>;inject:<round>
///
/// Parse(ToString()) round-trips. The printed `--replay=` reproduction
/// command on a violation is exactly ToString() of the failing run.
struct SoakSpec {
  uint64_t rounds = 200;
  uint64_t epoch_length = 25;  ///< 0 disables epochs.
  uint64_t seed = 1;
  int num_stateless = 26;
  int num_storage = 2;
  int oc_size = 4;
  int shard_bits = 1;
  double offered_tps = 40.0;
  double max_commit_gap_s = 60.0;
  std::string workload;       ///< workload::Spec grammar; empty = uniform.
  std::string faults;         ///< net::FaultPlan grammar; empty = none.
  std::string adversary;      ///< core::AdversarySpec grammar; empty = honest.
  std::string dissemination;  ///< net::DisseminationSpec; empty = direct.
  /// Test-only safety-violation hook: from this round on the chaos run's
  /// observed GlobalRoot is perturbed before the reference comparison, so
  /// the checker must flag it and the replay path must reproduce it
  /// (0 = disabled). Proves the harness detects what it claims to detect.
  uint64_t inject_divergence_round = 0;

  static Result<SoakSpec> Parse(const std::string& spec);
  std::string ToString() const;
};

/// What a soak run reports back (and bench/soak.cc serializes as JSON).
struct SoakReport {
  uint64_t rounds_completed = 0;
  uint64_t epochs_completed = 0;  ///< `core.epochs` of the chaos run.
  uint64_t invariant_checks = 0;
  uint64_t committed_txs = 0;
  double max_commit_gap_s = 0;
  double sim_seconds = 0;
  double tps = 0;
  std::vector<std::string> violations;
  /// Non-empty exactly when violations is: pass to `--replay=` to
  /// deterministically reproduce the failing run.
  std::string replay_spec;

  bool ok() const { return violations.empty(); }
  std::string ToJson() const;
};

/// Runs the chaos soak: the spec's full deployment (faults + adversary +
/// dissemination + epoch churn) at `worker_threads`, in round-lockstep with
/// a same-spec reference deployment at 0 worker threads fed the identical
/// transaction stream. Each round both advance one commit and the checker
/// asserts GlobalRoot identity between them (catching any thread-count
/// divergence the moment it happens), total-supply conservation in each,
/// plus liveness (bounded commit gap, bounded pool age); terminal checks
/// cover chain integrity, replay mismatches, supply, evidence attribution,
/// and whole-chain identity. Stops at the first violation and stamps the
/// replay command into the report.
Result<SoakReport> RunSoak(const SoakSpec& spec, int worker_threads = 0);

}  // namespace porygon::workload

#endif  // PORYGON_WORKLOAD_SOAK_H_
