#include "workload/soak.h"

#include <memory>
#include <set>
#include <utility>

#include "common/clause.h"
#include "core/system.h"
#include "net/fault.h"
#include "state/sharded_state.h"
#include "workload/traffic.h"

namespace porygon::workload {

namespace {

using clause::FormatG;

/// Upper bound on the soak's node and committee counts.
constexpr int kMaxNodes = 1'000'000;

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

uint64_t CounterOr0(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Counter* c = reg.FindCounter(name, {});
  return c == nullptr ? 0 : c->value();
}

}  // namespace

// ---------------------------------------------------------------------------
// InvariantChecker
// ---------------------------------------------------------------------------

InvariantChecker::InvariantChecker(Options options,
                                   obs::MetricsRegistry* registry)
    : options_(options) {
  if (registry != nullptr) {
    checks_counter_ = registry->GetCounter("soak.invariant_checks");
  }
}

Status InvariantChecker::Pass() {
  ++checks_;
  if (checks_counter_ != nullptr) checks_counter_->Increment();
  return Status::Ok();
}

Status InvariantChecker::Violation(std::string what) {
  ++checks_;
  if (checks_counter_ != nullptr) checks_counter_->Increment();
  violations_.push_back(what);
  return Status::FailedPrecondition(std::move(what));
}

Status InvariantChecker::CheckChainIntegrity(core::PorygonSystem& sys) {
  const std::vector<tx::ProposalBlock>& chain = sys.chain();
  for (size_t i = 1; i < chain.size(); ++i) {
    if (chain[i].prev_hash != chain[i - 1].Hash()) {
      return Violation("chain integrity: block " + std::to_string(i) +
                       " prev_hash does not match predecessor");
    }
    if (!chain[i].shard_roots.empty() &&
        chain[i].state_root !=
            state::ShardedState::AggregateRoots(chain[i].shard_roots)) {
      return Violation("chain integrity: block " + std::to_string(i) +
                       " state_root does not aggregate its shard roots");
    }
  }
  return Pass();
}

Status InvariantChecker::CheckNoReplayMismatches(core::PorygonSystem& sys) {
  const uint64_t mismatches = sys.metrics().replay_mismatches();
  if (mismatches != 0) {
    return Violation("replay: " + std::to_string(mismatches) +
                     " storage replay root mismatch(es)");
  }
  return Pass();
}

Status InvariantChecker::CheckEvidenceOnlyAgainstMalicious(
    core::PorygonSystem& sys) {
  std::set<crypto::PublicKey> corruptible;
  for (int i = 0; i < sys.num_stateless_nodes(); ++i) {
    if (sys.stateless_node(i)->ever_malicious()) {
      corruptible.insert(sys.stateless_node(i)->public_key());
    }
  }
  for (const consensus::EquivocationEvidence& ev :
       sys.equivocation_evidence()) {
    if (corruptible.count(ev.first.voter) == 0) {
      return Violation(
          "evidence: equivocation recorded against a node no epoch's "
          "placement ever corrupted (instance " +
          std::to_string(ev.instance) + ")");
    }
  }
  return Pass();
}

Status InvariantChecker::CheckSupplyConserved(core::PorygonSystem& sys) {
  const uint64_t supply = sys.canonical_state().TotalSupply();
  const uint64_t funded = sys.funded_supply();
  if (supply != funded) {
    const int64_t drift = static_cast<int64_t>(supply - funded);
    return Violation("conservation: total supply " + std::to_string(supply) +
                     " drifted by " + std::to_string(drift) + " from the " +
                     std::to_string(funded) + " funded at genesis");
  }
  return Pass();
}

Status InvariantChecker::CheckBoundedCommitGap(core::PorygonSystem& sys) {
  const obs::HistogramSummary gaps = sys.metrics().BlockLatency();
  if (gaps.count > 0 && gaps.max > options_.max_commit_gap_s) {
    return Violation("liveness: max commit gap " + FormatG(gaps.max) +
                     "s exceeds bound " + FormatG(options_.max_commit_gap_s) +
                     "s");
  }
  return Pass();
}

Status InvariantChecker::CheckSameChain(core::PorygonSystem& a,
                                        core::PorygonSystem& b) {
  if (a.chain().size() != b.chain().size()) {
    return Violation("divergence: chain lengths differ (" +
                     std::to_string(a.chain().size()) + " vs " +
                     std::to_string(b.chain().size()) + ")");
  }
  for (size_t i = 0; i < a.chain().size(); ++i) {
    if (a.chain()[i].Hash() != b.chain()[i].Hash()) {
      return Violation("divergence: block " + std::to_string(i) +
                       " differs between runs");
    }
  }
  return Pass();
}

Status InvariantChecker::CheckRootsMatch(const crypto::Hash256& observed,
                                         const crypto::Hash256& reference,
                                         uint64_t round) {
  if (observed != reference) {
    return Violation("divergence: GlobalRoot mismatch vs reference run at "
                     "round " +
                     std::to_string(round));
  }
  return Pass();
}

Status InvariantChecker::ObserveRound(core::PorygonSystem& sys) {
  const uint64_t committed = sys.metrics().committed_txs();
  size_t pending = 0;
  for (int i = 0; i < sys.num_storage_nodes(); ++i) {
    pending += sys.storage_node(i)->pool_pending();
  }
  if (committed > last_committed_txs_ || pending == 0) {
    last_committed_txs_ = committed;
    starved_rounds_ = 0;
    return Pass();
  }
  if (++starved_rounds_ > options_.max_starved_rounds) {
    return Violation("liveness: " + std::to_string(pending) +
                     " pooled transaction(s) aged " +
                     std::to_string(starved_rounds_) +
                     " rounds with no commit progress");
  }
  return Pass();
}

// ---------------------------------------------------------------------------
// SoakSpec
// ---------------------------------------------------------------------------

Result<SoakSpec> SoakSpec::Parse(const std::string& spec) {
  SoakSpec out;
  for (const clause::Clause& c : clause::Split(spec, ';')) {
    if (!c.has_value) return clause::Bad("soak", c.text);
    const std::string_view v = c.value;
    bool ok = false;
    if (c.key == "rounds") {
      ok = clause::ParseU64(v, &out.rounds) && out.rounds > 0;
    } else if (c.key == "epoch") {
      ok = clause::ParseU64(v, &out.epoch_length) && out.epoch_length != 1;
    } else if (c.key == "seed") {
      ok = clause::ParseU64(v, &out.seed);
    } else if (c.key == "nodes") {
      ok = clause::ParseInt(v, &out.num_stateless, 1, kMaxNodes);
    } else if (c.key == "storages") {
      ok = clause::ParseInt(v, &out.num_storage, 1, kMaxNodes);
    } else if (c.key == "oc") {
      ok = clause::ParseInt(v, &out.oc_size, 1, kMaxNodes);
    } else if (c.key == "shardbits") {
      ok = clause::ParseInt(v, &out.shard_bits, 0, 8);
    } else if (c.key == "tps") {
      ok = clause::ParseReal(v, &out.offered_tps, 0);
    } else if (c.key == "gap") {
      ok = clause::ParseReal(v, &out.max_commit_gap_s) &&
           out.max_commit_gap_s > 0;
    } else if (c.key == "workload") {
      PORYGON_RETURN_IF_ERROR(Spec::Parse(std::string(v)).status());
      out.workload = v;
      ok = true;
    } else if (c.key == "faults") {
      PORYGON_RETURN_IF_ERROR(net::FaultPlan::Parse(std::string(v)).status());
      out.faults = v;
      ok = true;
    } else if (c.key == "adversary") {
      PORYGON_RETURN_IF_ERROR(
          core::AdversarySpec::Parse(std::string(v)).status());
      out.adversary = v;
      ok = true;
    } else if (c.key == "dissemination") {
      PORYGON_RETURN_IF_ERROR(
          net::DisseminationSpec::Parse(std::string(v)).status());
      out.dissemination = v;
      ok = true;
    } else if (c.key == "inject") {
      ok = clause::ParseU64(v, &out.inject_divergence_round);
    }
    if (!ok) return clause::Bad("soak", c.text);
  }
  return out;
}

std::string SoakSpec::ToString() const {
  std::string s = "rounds:" + std::to_string(rounds);
  s += ";epoch:" + std::to_string(epoch_length);
  s += ";seed:" + std::to_string(seed);
  s += ";nodes:" + std::to_string(num_stateless);
  s += ";storages:" + std::to_string(num_storage);
  s += ";oc:" + std::to_string(oc_size);
  s += ";shardbits:" + std::to_string(shard_bits);
  s += ";tps:" + FormatG(offered_tps);
  s += ";gap:" + FormatG(max_commit_gap_s);
  if (!workload.empty()) s += ";workload:" + workload;
  if (!faults.empty()) s += ";faults:" + faults;
  if (!adversary.empty()) s += ";adversary:" + adversary;
  if (!dissemination.empty()) s += ";dissemination:" + dissemination;
  if (inject_divergence_round > 0) {
    s += ";inject:" + std::to_string(inject_divergence_round);
  }
  return s;
}

// ---------------------------------------------------------------------------
// SoakReport
// ---------------------------------------------------------------------------

std::string SoakReport::ToJson() const {
  std::string out = "{";
  out += "\"rounds_completed\":" + std::to_string(rounds_completed);
  out += ",\"epochs_completed\":" + std::to_string(epochs_completed);
  out += ",\"invariant_checks\":" + std::to_string(invariant_checks);
  out += ",\"committed_txs\":" + std::to_string(committed_txs);
  out += ",\"max_commit_gap_s\":" + FormatG(max_commit_gap_s);
  out += ",\"sim_seconds\":" + FormatG(sim_seconds);
  out += ",\"tps\":" + FormatG(tps);
  out += ",\"violations\":[";
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) out += ',';
    out += "\"" + JsonEscape(violations[i]) + "\"";
  }
  out += "]";
  out += ",\"replay\":\"" + JsonEscape(replay_spec) + "\"";
  out += "}";
  return out;
}

// ---------------------------------------------------------------------------
// RunSoak
// ---------------------------------------------------------------------------

namespace {

Result<std::unique_ptr<core::PorygonSystem>> BuildDeployment(
    const SoakSpec& spec, const Spec& wl, int worker_threads) {
  core::SystemOptions opt;
  opt.params.shard_bits = spec.shard_bits;
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 50;
  opt.params.storage_connections = 2;
  opt.num_storage_nodes = spec.num_storage;
  opt.num_stateless_nodes = spec.num_stateless;
  opt.oc_size = spec.oc_size;
  opt.epoch_length = spec.epoch_length;
  opt.seed = spec.seed;
  opt.worker_threads = worker_threads;
  if (!spec.adversary.empty()) {
    PORYGON_ASSIGN_OR_RETURN(opt.adversary,
                             core::AdversarySpec::Parse(spec.adversary));
  }
  if (!spec.dissemination.empty()) {
    PORYGON_ASSIGN_OR_RETURN(
        opt.dissemination, net::DisseminationSpec::Parse(spec.dissemination));
  }
  PORYGON_RETURN_IF_ERROR(opt.Validate());
  auto sys = std::make_unique<core::PorygonSystem>(opt);
  if (!spec.faults.empty()) {
    PORYGON_ASSIGN_OR_RETURN(net::FaultPlan plan,
                             net::FaultPlan::Parse(spec.faults));
    PORYGON_RETURN_IF_ERROR(sys->InjectFaults(plan));
  }
  sys->CreateAccountsLazy(wl.num_accounts, 1'000'000);
  return sys;
}

}  // namespace

Result<SoakReport> RunSoak(const SoakSpec& spec, int worker_threads) {
  PORYGON_ASSIGN_OR_RETURN(
      Spec wl, Spec::Parse(spec.workload.empty() ? "uniform" : spec.workload));
  wl.shard_bits = spec.shard_bits;

  // The chaos deployment runs the requested thread count; the reference
  // deployment runs the same spec serially. Both consume the identical
  // transaction stream in round-lockstep, so any scheduling-dependent
  // divergence in the chaos run surfaces as a GlobalRoot mismatch the
  // round it happens instead of as a corrupt export hours later.
  PORYGON_ASSIGN_OR_RETURN(std::unique_ptr<core::PorygonSystem> chaos,
                           BuildDeployment(spec, wl, worker_threads));
  PORYGON_ASSIGN_OR_RETURN(std::unique_ptr<core::PorygonSystem> reference,
                           BuildDeployment(spec, wl, 0));

  InvariantChecker::Options check_opts;
  check_opts.max_commit_gap_s = spec.max_commit_gap_s;
  InvariantChecker checker(check_opts, chaos->metrics_registry());

  std::unique_ptr<TrafficModel> model = wl.BuildModel();
  std::unique_ptr<ArrivalProcess> arrival = wl.BuildArrival();
  // Rough round length (reconfig interval + jitter + phase slack) used only
  // to size per-round offered batches; the long-run average is corrected by
  // the arrival process integrating real sim time.
  const double est_round_s = 2.5;

  for (uint64_t r = 1; r <= spec.rounds; ++r) {
    const size_t n = arrival->CountFor(chaos->sim_seconds(), est_round_s,
                                       spec.offered_tps);
    const std::vector<tx::Transaction> batch = model->Batch(n);
    chaos->SubmitBatch(batch);
    reference->SubmitBatch(batch);

    const size_t chaos_before = chaos->chain().size();
    const net::SimTime deadline =
        net::FromSeconds(2.0 * spec.max_commit_gap_s);
    chaos->Run(1, chaos->events()->now() + deadline);
    reference->Run(1, reference->events()->now() + deadline);
    if (chaos->chain().size() == chaos_before) {
      checker.CheckBoundedCommitGap(*chaos);  // Record the gap that stalled.
      checker.Violation("liveness: round " + std::to_string(r) +
                        " did not commit within " +
                        FormatG(2.0 * spec.max_commit_gap_s) + "s");
      break;
    }

    crypto::Hash256 observed = chaos->canonical_state().GlobalRoot();
    if (spec.inject_divergence_round > 0 &&
        r >= spec.inject_divergence_round) {
      observed[0] ^= 0xff;  // Test-only hook: provoke a detectable fault.
    }
    const bool safe =
        checker
            .CheckRootsMatch(observed,
                             reference->canonical_state().GlobalRoot(), r)
            .ok() &&
        checker.CheckSupplyConserved(*chaos).ok() &&
        checker.CheckSupplyConserved(*reference).ok();
    const bool live = checker.ObserveRound(*chaos).ok();
    if (!safe || !live) break;
  }

  // Terminal sweep: whole-run invariants that are cheap once rather than
  // per-round. Run even after an early stop — extra context for triage.
  checker.CheckBoundedCommitGap(*chaos);
  checker.CheckChainIntegrity(*chaos);
  checker.CheckNoReplayMismatches(*chaos);
  checker.CheckSupplyConserved(*chaos);
  checker.CheckEvidenceOnlyAgainstMalicious(*chaos);
  checker.CheckSameChain(*chaos, *reference);

  const core::SystemMetrics m = chaos->metrics();
  SoakReport report;
  report.rounds_completed = m.committed_blocks();
  report.epochs_completed = CounterOr0(*chaos->metrics_registry(),
                                       "core.epochs");
  report.invariant_checks = checker.checks();
  report.committed_txs = m.committed_txs();
  report.max_commit_gap_s = m.BlockLatency().max;
  report.sim_seconds = chaos->sim_seconds();
  report.tps = m.Tps(report.sim_seconds);
  report.violations = checker.violations();
  if (!checker.ok()) report.replay_spec = spec.ToString();
  return report;
}

}  // namespace porygon::workload
