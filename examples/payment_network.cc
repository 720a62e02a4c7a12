// Payment-network scenario: the workload the paper's introduction motivates
// ("a common payment scenario, e.g., Visa, requires reaching 20,000 TPS").
// Drives a sharded Porygon deployment with an open-loop transfer stream at
// a configurable rate and reports sustained throughput and latency.
//
//   ./example_payment_network [offered_tps] [--workload=<spec>]

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/clause.h"
#include "core/system.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  using namespace porygon;
  bench::Args args;
  if (Status parsed = args.Parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  double offered_tps = 2000.0;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--", 0) != 0) {
      if (!clause::ParseReal(argv[i], &offered_tps)) {
        std::fprintf(stderr, "offered_tps must be a number: %s\n", argv[i]);
        return 2;
      }
      break;
    }
  }

  core::SystemOptions options;
  options.params.shard_bits = 3;  // 8 shards.
  options.params.witness_threshold = 2;
  options.params.execution_threshold = 2;
  options.params.block_tx_limit = 2000;
  options.num_storage_nodes = 2;
  options.num_stateless_nodes = 100;
  options.oc_size = 10;
  options.blocks_per_shard_round = 2;
  options.seed = 7;

  core::PorygonSystem system(options);

  // Mostly-domestic payments: 10% cross-shard, mildly skewed senders.
  // --workload=<spec> swaps in any other traffic model.
  workload::Spec spec;
  spec.num_accounts = 500'000;
  spec.cross_shard_ratio = 0.1;
  spec.zipf_s = 0.6;
  spec.amount_max = 500;
  spec.seed = 99;
  spec = args.WorkloadOr(spec);
  spec.shard_bits = options.params.shard_bits;
  system.CreateAccountsLazy(spec.num_accounts, 1'000'000);
  std::unique_ptr<workload::TrafficModel> generator = spec.BuildModel();
  std::unique_ptr<workload::ArrivalProcess> arrival = spec.BuildArrival();

  std::printf("offering ~%.0f TPS to an 8-shard, 100-node deployment...\n",
              offered_tps);
  const int kRounds = 12;
  const double kEstRoundSeconds = 5.0;
  for (int r = 0; r < kRounds; ++r) {
    size_t n = arrival->CountFor(system.sim_seconds(), kEstRoundSeconds,
                                 offered_tps);
    system.SubmitBatch(generator->Batch(n));
    system.Run(1);
  }

  const core::SystemMetrics m = system.metrics();
  double duration = system.sim_seconds();
  std::printf("\nsimulated time:        %.1f s\n", duration);
  std::printf("sustained throughput:  %.0f TPS\n", m.Tps(duration));
  std::printf("block interval:        %.2f s\n", m.BlockLatency().mean);
  std::printf("tx commit latency:     %.2f s\n", m.CommitLatency().mean);
  std::printf("user-perceived:        %.2f s (p99 %.2f s)\n",
              m.UserLatency().mean, m.UserLatency().p99);
  std::printf("conflict discards:     %lu\n",
              static_cast<unsigned long>(m.discarded_txs()));
  std::printf("invalid (nonce/funds): %lu\n",
              static_cast<unsigned long>(m.failed_txs()));
  return 0;
}
