#!/usr/bin/env bash
# The Porygon benchmark: builds ../src and porygon_bench into build/benchmark/,
# then runs it. Run from anywhere inside a checkout.
#
#   benchmark/run.sh                  one pass: every workload, seed 1
#   benchmark/run.sh --seed N         one pass at seed N
#   benchmark/run.sh --trace          every workload traced once (seed 1):
#                                     per-layer metrics, sim-metric identity
#                                     check, Chrome traces in
#                                     build/benchmark/traces/
#   benchmark/run.sh --quick          smoke pass (2 warm-up + 2 measured
#                                     rounds per workload); asserts every
#                                     metric named in BENCHMARK.json prints
#                                     a finite value and a unit
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one workload; the last line of output
#                                     is its JSON result
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build/benchmark"
bin="$build/porygon_bench"

workload="" seed=1 seconds="" trace=0 quick=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ $# -gt 1 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --quick) quick=1; shift ;;
    *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done

# Build output goes to stderr so stdout carries only results.
cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j 4 >&2

run_one() {  # <workload> [porygon_bench flags...]
  local w="$1"; shift
  local flags=(--workload="$w" --seed="$seed" "$@")
  [[ -n "$seconds" ]] && flags+=(--seconds="$seconds")
  if [[ "$trace" == 1 ]]; then
    mkdir -p "$build/traces"
    flags+=(--trace --out-dir="$build/traces")
  fi
  "$bin" "${flags[@]}"
}

if [[ -n "$workload" ]]; then
  run_one "$workload"
  exit 0
fi

workloads=(uniform_8shard uniform_32shard_tree zipf_2k chaos_1k)
if [[ "$quick" == 0 ]]; then
  for w in "${workloads[@]}"; do run_one "$w"; done
  exit 0
fi

# Quick mode: every metric BENCHMARK.json names must print, finite, with a
# unit, for every workload.
out="$build/quick.out"
: > "$out"
for w in "${workloads[@]}"; do run_one "$w" --quick | tee -a "$out"; done
python3 - "$root/BENCHMARK.json" "$out" "${workloads[@]}" <<'EOF'
import json, math, sys
spec = json.load(open(sys.argv[1]))
names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
seen = {}
for line in open(sys.argv[2]):
    parts = line.split()
    if len(parts) == 4:
        seen[(parts[0], parts[1])] = parts[2:]
bad = []
for w in sys.argv[3:]:
    for n in names:
        got = seen.get((w, n))
        if got is None:
            bad.append(f"{w} {n}: missing")
        elif not math.isfinite(float(got[0])) or not got[1]:
            bad.append(f"{w} {n}: {' '.join(got)}")
for b in bad:
    print("quick FAIL:", b, file=sys.stderr)
if bad:
    sys.exit(1)
print(f"quick: {len(names)} metrics x {len(sys.argv) - 3} workloads ok")
EOF
