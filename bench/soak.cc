// Chaos soak harness: long-horizon deterministic runs composing
// --workload= x --faults= x --adversary= x --dissemination= with
// epoch-based committee reconfiguration (--epoch-length=), continuously
// checked for safety (GlobalRoot identity against a same-seed reference
// run, chain integrity, evidence attribution) and liveness (bounded commit
// gap, bounded pool age) by workload::InvariantChecker. On any violation
// the harness prints a one-line `--replay='<spec>'` command that
// deterministically reproduces the failing run.

#include <cstdio>
#include <string>
#include <utility>

#include "bench_util.h"
#include "common/status.h"
#include "workload/soak.h"

namespace {

/// Flags that each forward their value verbatim as one SoakSpec clause.
constexpr std::pair<const char*, const char*> kClauseFlags[] = {
    {"--rounds=", "rounds"},       {"--epoch-length=", "epoch"},
    {"--seed=", "seed"},           {"--nodes=", "nodes"},
    {"--storages=", "storages"},   {"--oc=", "oc"},
    {"--shard-bits=", "shardbits"}, {"--tps=", "tps"},
    {"--gap=", "gap"},             {"--workload=", "workload"},
    {"--faults=", "faults"},       {"--adversary=", "adversary"},
    {"--dissemination=", "dissemination"}, {"--inject=", "inject"},
};

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "  --rounds=<n>          driver rounds (default 200)\n"
      "  --epoch-length=<n>    committee reconfiguration period; 0 disables"
      " (default 25)\n"
      "  --seed=<n>            system seed (default 1)\n"
      "  --nodes=<n>           stateless nodes (default 26)\n"
      "  --storages=<n>        storage nodes (default 2)\n"
      "  --oc=<n>              ordering-committee size (default 4)\n"
      "  --shard-bits=<n>      shards = 2^bits (default 1)\n"
      "  --tps=<f>             offered load (default 40)\n"
      "  --gap=<s>             max commit gap / liveness bound (default 60)\n"
      "  --workload=<spec>     workload::Spec grammar\n"
      "  --faults=<spec>       net::FaultPlan grammar\n"
      "  --adversary=<spec>    core::AdversarySpec grammar\n"
      "  --dissemination=<spec> net::DisseminationSpec grammar\n"
      "  --inject=<round>      test-only: perturb observed roots from this"
      " round (harness must catch it)\n"
      "  --threads=<n>         chaos-run worker threads (default 0)\n"
      "  --replay=<soakspec>   full SoakSpec string; overrides every flag"
      " above\n"
      "  --out=<file>          write the SoakReport JSON\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace porygon;

  bench::Args args;
  args.Declare("--replay=").Declare("--out=").Declare(
      "--threads=", bench::Args::Kind::kInt);
  for (const auto& [flag, key] : kClauseFlags) args.Declare(flag);
  Status flags = args.Parse(argc, argv);
  if (flags.ok() && args.Has("--trace-out=")) {
    flags = Status::InvalidArgument("soak does not trace: --trace-out");
  }
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.ToString().c_str());
    Usage(argv[0]);
    return 2;
  }
  std::string clauses;
  for (const auto& [flag, key] : kClauseFlags) {
    if (!args.Has(flag)) continue;
    if (!clauses.empty()) clauses += ';';
    clauses += std::string(key) + ":" + args.Value(flag);
  }
  const std::string replay = args.Value("--replay=");
  const std::string out_path = args.Value("--out=");
  const int threads = args.Int("--threads=", 0);

  // --replay carries the complete failing configuration; every other spec
  // flag is ignored when it is present so the reproduction is exact.
  Result<workload::SoakSpec> parsed =
      workload::SoakSpec::Parse(replay.empty() ? clauses : replay);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const workload::SoakSpec spec = std::move(parsed).value();
  std::printf("soak: %s (threads=%d)\n", spec.ToString().c_str(), threads);

  Result<workload::SoakReport> result = workload::RunSoak(spec, threads);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 2;
  }
  const workload::SoakReport& report = result.value();

  std::printf(
      "soak: %llu rounds, %llu epochs, %llu invariant checks, %llu txs, "
      "max commit gap %.3fs, %.1f tps\n",
      static_cast<unsigned long long>(report.rounds_completed),
      static_cast<unsigned long long>(report.epochs_completed),
      static_cast<unsigned long long>(report.invariant_checks),
      static_cast<unsigned long long>(report.committed_txs),
      report.max_commit_gap_s, report.tps);

  if (!out_path.empty()) {
    if (std::FILE* f = std::fopen(out_path.c_str(), "wb")) {
      const std::string json = report.ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "soak: cannot write %s\n", out_path.c_str());
    }
  }

  if (!report.ok()) {
    for (const std::string& v : report.violations) {
      std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
    }
    std::fprintf(stderr, "REPLAY: %s --replay='%s'\n", argv[0],
                 report.replay_spec.c_str());
    return 1;
  }
  std::printf("OK: zero invariant violations\n");
  return 0;
}
