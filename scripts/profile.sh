#!/usr/bin/env bash
# Host wall-time profile of one benchmark workload with gprof. Builds
# benchmark/ (and the library from src/) with -pg into build/profile/, runs
# porygon_bench once, then prints the top-20 flat profile plus the call
# counts and callers of the SHA-256 compression functions and
# Transaction::Id, and Transaction::Id calls per submitted transaction.
#
#   scripts/profile.sh [--workload W] [--seed N] [--seconds S]
#
# Defaults: --workload uniform_8shard --seed 1 --seconds 12. The full gprof
# outputs stay in build/profile/ (flat.txt, callgraph.txt) next to gmon.out.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build/profile"

workload=uniform_8shard seed=1 seconds=12
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    *) echo "profile.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done

cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-pg -fno-omit-frame-pointer" >&2
cmake --build "$build" -j 4 --target porygon_bench >&2

# gprof writes gmon.out into the working directory on exit.
cd "$build"
rm -f gmon.out
./porygon_bench --workload="$workload" --seed="$seed" --seconds="$seconds" \
  > bench.out
gprof -b -p ./porygon_bench gmon.out > flat.txt
gprof -b -q ./porygon_bench gmon.out > callgraph.txt

echo "== $workload seed $seed, ${seconds}s: top 20 by self time =="
# Flat profile: two header lines, then one row per function.
head -n 22 flat.txt

python3 - callgraph.txt <<'EOF'
import re, sys

# gprof -q: entries separated by dashed lines; each entry lists its callers,
# then the primary line "[index] %time self children called name", then its
# callees.
entries = open(sys.argv[1]).read().split("\n-----------------------------------------------")
def find(pattern):
    for entry in entries:
        lines = [l for l in entry.splitlines() if l.strip()]
        for i, line in enumerate(lines):
            if re.match(r"^\[\d+\]", line) and re.search(pattern, line):
                yield lines[:i + 1]

def parse(primary):
    """(calls, name) of a primary line; "called" is "n", "n+r" or absent."""
    fields = primary.split()
    if fields[4][0].isdigit():
        calls, name = sum(int(x) for x in fields[4].split("+")), fields[5:]
    else:
        calls, name = 0, fields[4:]
    return calls, re.sub(r"\(.*", "", " ".join(name))

id_calls = 0
admitted = 0
for pattern in (r"crypto::internal::Compress", r"tx::Transaction::Id\(\) const"):
    for block in find(pattern):
        calls, name = parse(block[-1])
        print(f"\n== {name}: {calls} calls; callers ==")
        for line in block[:-1]:
            print(line)
        if "Transaction::Id" in name:
            id_calls += calls
            for line in block[:-1]:
                if re.search(r"AdmitStamped|SubmitBatch|SubmitTransaction", line):
                    admitted += int(line.split()[2].split("/")[0])
if admitted:
    print(f"\nTransaction::Id calls per submitted tx: {id_calls / admitted:.2f} "
          f"({id_calls} calls, {admitted} submissions)")
EOF
