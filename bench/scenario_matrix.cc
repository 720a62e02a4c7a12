// Scenario matrix: workload x --faults= x --adversary= sweep. Each cell
// stands up a fresh small Porygon deployment, drives it with the cell's
// traffic model and arrival process, and emits one JSON row: throughput,
// p50/p95/p99 user latency, conflict-discard rate, per-reason rejection
// counters, and adversary evidence. Rows carry only sim-derived values, so
// the row block is byte-identical for a given seed at any thread count;
// wall-clock provenance lives in the separate "bench" block.
//
//   ./scenario_matrix                          # default >= 9-cell sweep
//   ./scenario_matrix --out=matrix.json
//   ./scenario_matrix --rounds=2 --tps=200 --workload=zipf:0.99,...
//                                              # single-cell (smoke) mode
//
// In single-cell mode --faults=/--adversary= apply to that cell; in sweep
// mode the matrix supplies its own fault/adversary columns.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace porygon;
  bench::Args args;
  args.Declare("--out=")
      .Declare("--rounds=", bench::Args::Kind::kInt)
      .Declare("--tps=", bench::Args::Kind::kReal);
  if (Status parsed = args.Parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }

  workload::ScenarioOptions opt;
  opt.rounds = args.Int("--rounds=", opt.rounds);
  opt.offered_tps = args.Real("--tps=", opt.offered_tps);
  std::string out_path = args.Value("--out=");
  if (out_path.empty()) out_path = "scenario_matrix.json";

  std::vector<workload::ScenarioCell> cells;
  if (args.has_workload()) {
    cells.push_back({args.WorkloadOr({}).ToString(), args.Value("--faults="),
                     args.Value("--adversary="),
                     args.Value("--dissemination=")});
  } else {
    cells = workload::DefaultScenarioMatrix();
  }

  bench::PrintHeader("Scenario matrix: workload x faults x adversary");
  bench::PrintRow({"workload", "faults", "adversary", "tps", "p99_s"});

  bench::WallTimer timer;
  std::string rows;
  for (const auto& cell : cells) {
    Result<std::string> row = workload::RunScenarioCell(cell, opt);
    if (!row.ok()) {
      std::fprintf(stderr, "cell '%s' failed: %s\n", cell.workload.c_str(),
                   row.status().ToString().c_str());
      return 1;
    }
    if (!rows.empty()) rows += ",\n";
    rows += *row;
    // Console summary: the model clause, whether faults/adversary were on,
    // and the two headline numbers pulled back out of the row.
    auto field = [&](const char* key) {
      const std::string k = std::string("\"") + key + "\":";
      const size_t at = row->find(k);
      if (at == std::string::npos) return std::string("?");
      const size_t start = at + k.size();
      return row->substr(start, row->find_first_of(",}", start) - start);
    };
    bench::PrintRow({cell.workload.substr(0, cell.workload.find(',')),
                     cell.faults.empty() ? "-" : "on",
                     cell.adversary.empty() ? "-" : "on", field("tps"),
                     field("p99")});
  }

  char head[128];
  std::snprintf(head, sizeof(head),
                "{\"bench\":{\"wall_ms\":%.3f},\n\"rows\":[\n",
                timer.ElapsedMs());
  const std::string json = std::string(head) + rows + "\n]}\n";
  if (std::FILE* f = std::fopen(out_path.c_str(), "wb"); f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("  (matrix export: %s, %zu rows)\n", out_path.c_str(),
                cells.size());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
