#!/usr/bin/env bash
# Host wall-time profile of one benchmark workload, in two parts.
#
# 1. gprof: builds benchmark/ (and the library from src/) with -pg into
#    build/profile/, runs porygon_bench once, then prints the top-20 flat
#    profile plus the call counts and callers of the SHA-256 kernels (the
#    streaming compression, the one-message padded entry and the batched
#    16-lane kernel) and Transaction::Id, and Transaction::Id calls per
#    submitted transaction.
# 2. Event-loop wall time per handler: builds benchmark/ again with -g (no
#    -pg) into build/profile/wall/, and the wall-clock stack sampler in
#    scripts/wall_sampler.c, then runs porygon_bench once more with the
#    sampler preloaded. It samples the main thread every millisecond of
#    wall time, waits included, symbolises the stacks with addr2line, and
#    prints where that thread's time went: under PorygonSystem::Run by
#    handler frame (StatelessNodeActor::On*, StorageNodeActor::On*, and
#    the two execution waits PorygonSystem::SettledShardExec and
#    PorygonSystem::SettleExecState), and under SubmitBatch. It splits
#    every sample that waits for canonical execution, under Run or not, by
#    its reader (the shard wait in RunExecution, the all-shard settle at a
#    commit, canonical_state(), CreateAccounts, teardown, ...) and by what
#    the loop was doing there: running a shard body no worker had started,
#    running queued front halves while a worker ran the awaited job,
#    waiting, or its own work (the cache merge). A wait is a frame in
#    TaskPool::Wait, TaskPool::Cancel or AwaitDone, which they may
#    tail-call. It counts the samples decoding witness-bundle access
#    records (TxAccess::DecodeFrom) by whether the leader's MaybePropose
#    called them. It then prints the share under SHA-256 (frames in
#    crypto/sha256.{h,cc}) outside the execution waits, split into the
#    batched 16-lane kernel (HashBatchAvx512) and the one-message paths,
#    and by the two frames that called the hash and their handler. Then
#    the samples in which the loop took a prepared front half
#    (TakePrepared), by message kind and by whether it waited for the
#    worker running the job, ran other queued front halves meanwhile, ran
#    a job no worker had started inside Wait, or ran the front half of a
#    copy that carried no job. Last, every sample in which the loop ran a
#    queued front half while it waited on another job, by the front half's
#    kind and by the wait it was in.
#
#   scripts/profile.sh [--workload W] [--seed N] [--seconds S]
#
# Defaults: --workload uniform_8shard --seed 1 --seconds 12. The full gprof
# outputs stay in build/profile/ (flat.txt, callgraph.txt) next to gmon.out;
# the raw samples in build/profile/wall/wallprof.out.
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
for pattern in (r"crypto::internal::Compress", r"crypto::internal::HashPadded",
                r"crypto::internal::HashBatchAvx512",
                r"tx::Transaction::Id\(\) const"):
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

# --- Event-loop wall time per handler -------------------------------------
wall="$build/wall"
cmake -S "$root/benchmark" -B "$wall" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-g" >&2
cmake --build "$wall" -j 4 --target porygon_bench >&2
cc -O2 -shared -fPIC -o "$wall/wall_sampler.so" "$root/scripts/wall_sampler.c"

cd "$wall"
rm -f wallprof.out
LD_PRELOAD="$wall/wall_sampler.so" ./porygon_bench --workload="$workload" \
  --seed="$seed" --seconds="$seconds" > bench.out

python3 - ./porygon_bench wallprof.out <<'EOF'
import collections, re, subprocess, sys

exe, samples_path = sys.argv[1], sys.argv[2]
# One line per sample, innermost frame first; "-" = outside the program.
# Return addresses point after the call: symbolise the byte before.
stacks = [[int(f, 16) - 1 if f != "-" else None for f in line.split()]
          for line in open(samples_path)]
if not stacks:
    sys.exit("profile.sh: the wall sampler recorded no samples")
pcs = sorted({pc for s in stacks for pc in s if pc is not None})
# addr2line -a -f -i: each address, then (function, file:line) pairs from
# the innermost inlined function out to the function that contains them.
out = subprocess.run(["addr2line", "-e", exe, "-a", "-f", "-i", "-C"],
                     input="\n".join(hex(pc) for pc in pcs), text=True,
                     capture_output=True, check=True).stdout.splitlines()
names, sha, pc, i = {}, {}, None, 0
while i < len(out):
    if out[i].startswith("0x"):
        pc = int(out[i], 16)
        names[pc], sha[pc] = [], []
        i += 1
    else:
        # Drop argument lists; a lambda keeps a marker so it never names a
        # handler. The next line is the frame's file: SHA-256 frames are
        # the ones in crypto/sha256.{h,cc}.
        fn = (out[i].replace("porygon::", "").replace("core::", "")
              .replace("(anonymous namespace)::", ""))
        names[pc].append(re.sub(r"\(.*", "", fn) +
                         (" (lambda)" if "{lambda" in fn else ""))
        sha[pc].append(re.search(r"crypto/sha256\.(h|cc):", out[i + 1])
                       is not None)
        i += 2

HANDLER = re.compile(r"^(StatelessNodeActor|StorageNodeActor)::On\w+$")
METHOD = re.compile(
    r"^(StatelessNodeActor|StorageNodeActor|PorygonSystem)::\w+$")

# The frames that wait for canonical execution, outermost first: the shard
# wait of one reader and the all-shard settle.
EXEC_WAITS = ["PorygonSystem::SettledShardExec",
              "PorygonSystem::SettleExecState"]

def label(frames):
    """Names the handler of one stack below Run (outermost frame first)."""
    for fn in EXEC_WAITS:
        if fn in frames:
            return fn
    for fn in frames:
        if HANDLER.match(fn):
            return fn
    # No On* frame: the first other actor or system method (a scheduled
    # step such as DistributeRoundWork), else the work a HandleMessage
    # does inline, named by its first callee.
    for fn in frames:
        if METHOD.match(fn) and not fn.endswith("::HandleMessage"):
            return fn
    for k, fn in enumerate(frames):
        if fn.endswith("::HandleMessage"):
            inner = [f for f in frames[k + 1:] if not f.startswith("std::")]
            return fn + (" > " + inner[0] if inner else "")
    return "(event queue and network)"

# The readers that wait for canonical execution; the first listed that is
# on the stack names the reader. The launch at a commit is the tail call of
# OnBlockCommitted, so its stack may show AdvanceExecState alone.
READERS = [
    ("PorygonSystem::canonical_state", "canonical_state()"),
    ("PorygonSystem::CreateAccounts", "CreateAccounts"),
    ("PorygonSystem::CreateAccountsLazy", "CreateAccountsLazy"),
    ("PorygonSystem::SettledShardExec", "RunExecution's shard wait"),
    ("StatelessNodeActor::RunExecution", "RunExecution"),
    ("StorageNodeActor::OnStateRequest", "OnStateRequest"),
    ("PorygonSystem::StartRound", "the settle at StartRound"),
    ("PorygonSystem::AdvanceExecState", "the all-shard settle at a commit"),
    ("PorygonSystem::OnBlockCommitted", "OnBlockCommitted's reads"),
]
TAKES_FRONT = "runtime::TaskPool::RunFrontJobsWhileWaiting"

def waits(frames):
    """Whether a frame is TaskPool::Wait or Cancel, or the AwaitDone they
    may tail-call (its inlined frames come without the namespace)."""
    return any(fn in ("runtime::TaskPool::Wait", "runtime::TaskPool::Cancel")
               or fn.endswith("AwaitDone") for fn in frames)

def exec_split(frames):
    """(reader, activity) of a stack waiting for canonical execution, or
    None: a shard wait, an all-shard settle, or the teardown's drop of the
    shard jobs (TaskPool::Cancel under the destructor, not the pool's)."""
    k = next((frames.index(fn) for fn in EXEC_WAITS if fn in frames), None)
    if k is None:
        if "PorygonSystem::~PorygonSystem" not in frames:
            return None
        k = frames.index("PorygonSystem::~PorygonSystem")
        inner = frames[k + 1:]
        if "runtime::TaskPool::~TaskPool" in inner or not waits(inner):
            return None
        return "teardown", "waits"
    above = frames[:k + 1]
    reader = next((what for fn, what in READERS if fn in above),
                  frames[k - 1] if k > 0 else "?")
    inner = frames[k + 1:]
    if TAKES_FRONT in inner:
        return reader, "takes front halves"
    if any(fn.startswith("ShardExecutor::") for fn in inner):
        return reader, "runs a body"
    if waits(inner):
        return reader, "waits"
    return reader, "own work"

handlers = collections.Counter()
exec_readers = collections.Counter()
exec_activity = collections.defaultdict(collections.Counter)
# Front halves the loop ran while it waited on another job: by the front
# half's kind, and by the wait it was in.
taken_kinds = collections.Counter()
taken_in = collections.Counter()
hash_callers = collections.Counter()
record_decodes = collections.Counter()
hash_kinds = collections.Counter()
# Prepared front halves the loop took, by the result type TakePrepared
# names; what the loop did there (see classify_prepared).
PREPARED_KINDS = {"PreparedBody": "tx_block",
                  "PreparedExecResult": "exec_result",
                  "PreparedProposal": "proposal"}
prepared = collections.defaultdict(collections.Counter)

def classify_prepared(frames):
    """(kind, activity) of a stack under TakePrepared, else None."""
    for k, fn in enumerate(frames):
        m = re.search(r"TakePrepared<(\w+)>", fn)
        if m:
            break
    else:
        return None
    inner = frames[k + 1:]
    runs = any(re.search(r"Prepared\w+::Of$", f) for f in inner)
    if TAKES_FRONT in inner:
        activity = "takes others"
    elif waits(inner):
        activity = "runs in Wait" if runs else "waits"
    else:
        activity = "runs inline" if runs else "own work"
    return PREPARED_KINDS.get(m.group(1), m.group(1)), activity

def front_taken(frames):
    """The kind of front half a waiting loop ran for another job, or None."""
    if TAKES_FRONT not in frames:
        return None
    inner = frames[frames.index(TAKES_FRONT) + 1:]
    for fn in inner:
        m = re.search(r"(Prepared\w+)::Of$", fn)
        if m:
            return PREPARED_KINDS.get(m.group(1), m.group(1))
    return "(queue and job bookkeeping)"

in_run = in_submit = 0
for stack in stacks:
    frames = [fn for pc in reversed(stack) if pc is not None
              for fn in reversed(names.get(pc, []))]
    in_sha = [s for pc in reversed(stack) if pc is not None
              for s in reversed(sha.get(pc, []))]
    handler = None
    waited = exec_split(frames)
    if waited is not None:
        exec_readers[waited[0]] += 1
        exec_activity[waited[0]][waited[1]] += 1
    took = classify_prepared(frames)
    if took is not None:
        prepared[took[0]][took[1]] += 1
    kind = front_taken(frames)
    if kind is not None:
        taken_kinds[kind] += 1
        wait = next((fn for fn in EXEC_WAITS if fn in frames), None)
        taken_in[wait or f"TakePrepared ({took[0] if took else '?'})"] += 1
    if "TxAccess::DecodeFrom" in frames:
        record_decodes["in MaybePropose" if "StatelessNodeActor::MaybePropose"
                       in frames else "elsewhere"] += 1
    if "PorygonSystem::Run" in frames:
        in_run += 1
        handler = label(frames[frames.index("PorygonSystem::Run") + 1:])
        handlers[handler] += 1
    elif "PorygonSystem::SubmitBatch" in frames:
        in_submit += 1
        handler = "PorygonSystem::SubmitBatch"
    # SHA-256 on the loop's own path, named by the two frames that called
    # into it; the execution waits' share (shard bodies and front halves
    # run while waiting) is reported as a whole above.
    if (True in in_sha and handler is not None and
            handler not in EXEC_WAITS):
        k = in_sha.index(True)
        caller = " > ".join(frames[max(k - 2, 0):k]) or "?"
        hash_callers[f"{caller}  [{handler}]"] += 1
        batched = "crypto::internal::HashBatchAvx512" in frames[k:]
        hash_kinds["batched 16-lane kernel (HashBatchAvx512)" if batched
                   else "one-message paths"] += 1

total = len(stacks)
def share(n):
    return f"{100.0 * n / total:5.1f}%"
print(f"\n== event-loop thread: {total} wall samples, 1 ms apart ==")
print(f"{share(in_run)}  PorygonSystem::Run")
print(f"{share(in_submit)}  PorygonSystem::SubmitBatch")
print(f"{share(total - in_run - in_submit)}  elsewhere (set-up, generation, "
      "replay probes)")
print("\n== top 20 frames under PorygonSystem::Run, share of all samples ==")
for name, n in handlers.most_common(20):
    print(f"{share(n)} {n:7d}  {name}")
waited = sum(exec_readers.values())
print(f"\n== waits for canonical execution anywhere: {share(waited).strip()} "
      "of all samples; by reader (runs a body / takes front halves / waits / "
      "own work) ==")
for name, n in exec_readers.most_common():
    a = exec_activity[name]
    print(f"{share(n)} {n:7d}  {name}  ({a['runs a body']} / "
          f"{a['takes front halves']} / {a['waits']} / {a['own work']})")
print("\n== access-record decodes (TxAccess::DecodeFrom): "
      f"{record_decodes['in MaybePropose']} samples in the leader's "
      f"MaybePropose, {record_decodes['elsewhere']} elsewhere ==")
print(f"\n== SHA-256 under Run and SubmitBatch, outside execution waits: "
      f"{share(sum(hash_callers.values())).strip()} of all samples; "
      "by kernel ==")
for name, n in hash_kinds.most_common():
    print(f"{share(n)} {n:7d}  {name}")
print("by calling frames [handler]:")
for name, n in hash_callers.most_common(15):
    print(f"{share(n)} {n:7d}  {name}")
taken = sum(sum(c.values()) for c in prepared.values())
print(f"\n== prepared front halves taken on the loop: {share(taken).strip()} "
      "of all samples; by kind (waits for a worker / takes others meanwhile "
      "/ runs in Wait / runs inline / own work) ==")
for kind, c in sorted(prepared.items(), key=lambda kv: -sum(kv[1].values())):
    print(f"{share(sum(c.values()))} {sum(c.values()):7d}  {kind}  "
          f"({c['waits']} / {c['takes others']} / {c['runs in Wait']} / "
          f"{c['runs inline']} / {c['own work']})")
helped = sum(taken_kinds.values())
print(f"\n== front halves the loop ran while waiting on another job: "
      f"{share(helped).strip()} of all samples; by kind ==")
for kind, n in taken_kinds.most_common():
    print(f"{share(n)} {n:7d}  {kind}")
print("by the wait:")
for where, n in taken_in.most_common():
    print(f"{share(n)} {n:7d}  {where}")
EOF
