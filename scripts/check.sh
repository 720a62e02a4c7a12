#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the test suite — first a
# plain build, then (unless PORYGON_SKIP_SANITIZERS=1) an ASan+UBSan build
# and a TSan build that runs the parallel-runtime and system tests with
# worker threads enabled (PORYGON_THREADS=4).
#
#   scripts/check.sh              # plain + sanitized
#   PORYGON_SKIP_SANITIZERS=1 scripts/check.sh
#
# Build trees live under build/ (plain, reused from a normal checkout),
# build-asan/, and build-tsan/ so configurations never share object files.
set -euo pipefail

cd "$(dirname "$0")/.."

# Layering: the protocol engine keeps no storage engine of its own (storage
# nodes serve the canonical state and the shared block store), and the
# storage engine depends only on src/common (no obs/ or runtime/ hooks).
layering=$({
  grep -rn '#include "storage/' src/core
  grep -rn '#include "' src/storage | grep -vE '#include "(common|storage)/'
} || true)
if [[ -n "$layering" ]]; then
  echo "check.sh: layering violation:" >&2
  echo "$layering" >&2
  exit 1
fi

run_suite() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure
  # Hash suites: SHA-256 known answers at every padding boundary, SHA-NI
  # against the portable compression, the one-shot path and the node forms
  # against streaming, the batched entry against one Hash per message at
  # every one-shot length and at batch sizes around its 16 lanes, through
  # the dispatch and the AVX-512 kernel itself where the CPU has it
  # (Sha256Test.HashBatchMatchesOneShot; a kernel read past its input
  # surfaces under ASan), Merkle roots against a pair-by-pair reference for
  # 1-40 and 2,000 leaves (MerklePathTest.BatchedFolds...),
  # tx ids, ids hashed in chunks at admission against each body's Id()
  # (SystemIntegrationTest.BatchAdmissionIdsMatchTheirBodies), ids an EC
  # member hashes straight from a body's wire records against each
  # transaction's Id(), with one flipped body byte in any record failing
  # the check (TxBlocksTest.RecordIdsMatchBodiesAndFlippedBytesFailTheCheck),
  # the pool's flat admission set, and pool-sealed blocks whose reused ids
  # must match a fresh seal.
  ctest --test-dir "$dir" \
    -R 'Sha256|Merkle|TxBlocks|TxPool|TransactionTest|BlockTest|SystemIntegrationTest\.BatchAdmission' \
    --output-on-failure
  # Wire codec suites: Writer/Reader primitives and the Count bound, the
  # writer's cursor and in-place nested encodings whose length prefix is
  # widened by a memmove, bundles written from the block store into one
  # exactly sized buffer against the growing writer's bytes
  # (MessagesTest.BundlesWrittenFromTheStore...), the golden bytes of every encoded type with the
  # prefix/trailing-byte sweep (out-of-bounds reads surface under
  # ASan/UBSan), and forged counts that must be Corruption rather than an
  # allocation failure.
  ctest --test-dir "$dir" -R 'Codec|Wire|MessagesTest' --output-on-failure
  # Fault suite and spec grammars, called out explicitly: crash/recover
  # failover, censorship, same-seed determinism under an active FaultPlan,
  # and the shared clause grammar (strict numbers, every spec's rejection
  # table, pinned canonical strings) must never rot.
  ctest --test-dir "$dir" -R 'Clause|SpecTest|FaultInjection' \
    --output-on-failure
  # Adversary suite, likewise: chain identity and evidence collection under
  # every Byzantine strategy at the paper's alpha/beta bounds, fast-mode
  # state replies that carry only their bill while a tampering storage node
  # still counts its action (FastModeStateRepliesCarryOnlyTheirBill), and
  # the spec as the one adversary knob: the retired malicious fractions are
  # rejected at any non-zero value (ValidateEnforcesPaperBounds).
  ctest --test-dir "$dir" -R Adversary --output-on-failure
  # Cross-shard conservation: each Multi-Shard Update applies exactly once,
  # with the block that carries it. Total supply after cross-shard load and
  # a drain at two benchmark shapes, a batch with no S set releasing its
  # locks, and the coordinator forgetting each batch once its U is built.
  ctest --test-dir "$dir" \
    -R 'SystemIntegrationTest\.(CrossShardLoad|CrossShardBatchWithNoSSet)|CoordinatorTest' \
    --output-on-failure
  # Message plane and retention: one shared payload sent to many receivers
  # arrives as equal bytes from one allocation and is freed once every copy
  # is delivered, dropped at a crashed receiver, censored or duplicated (a
  # shared or forwarded buffer used after release shows up under ASan), and
  # each copy's prepared job is run by its Wait or dropped unrun once the
  # copy is done, releasing the payload either way; a
  # storage relay fans one inner buffer out to the whole OC; OC members
  # hold only the bundles of batch r-1, with their access records left in
  # the received payloads, which are freed once no member can list the
  # batch; EC members hold bodies as access records whose ids match, and
  # storage witness bookkeeping follows the block store. The bundle
  # records' round trip, shared and copied, is MessagesTest.
  # WitnessBundleRoundTripAndWireSize.
  ctest --test-dir "$dir" \
    -R 'NetFixture\.(SharedPayload|PreparedJobs)|MessagePlaneTest|RetentionTest' \
    --output-on-failure
  # State suites: the path-compressed tree's roots and proofs against a
  # from-scratch reference over keys spread across all 64 bits and at the
  # benchmark's shard shapes (SmtDifferentialTest: chains left halfway
  # down, collapsing deletes, partial trees whose stubs later proofs
  # expand; and the level-synchronous rehash at frontier sizes 1, 15, 16,
  # 17 and 8,000 on full and proof-built trees, with collapsing chains and
  # stubs a split re-lifts, in LevelSweepMatchesNaiveReferenceAtFrontier-
  # Sizes), its two records per leaf, account values against their
  # proofs, stateless views rebuilt from proofs, the flat uint64_t map
  # under churn, the digest-key set of the tx-id filters, and the radix
  # sort-unique of the ESC access lists.
  ctest --test-dir "$dir" \
    -R 'Smt|SmtDifferential|ShardedState|PartialState|U64Map|DigestSet|RadixSort' \
    --output-on-failure
  # Execution suite: the executor takes one list of access records and runs
  # its intra-shard records, then its cross-shard ones, each in list order
  # (ExecutionTest.InterleavedListAppliesIntraRecordsFirst); it reports a
  # failure under the record's own id, never a re-hash (FailuresAreReported-
  # UnderTheRecordsId); faithful ESCs executing on proof-built partial state
  # equal the full replica (PartialStateTest); the engine counts batch 1
  # committed exactly at B_4 (intra-shard) and B_6 (cross-shard), and not
  # before (BatchOneCommitsAtTheEnginesPipelineRounds); the protocol path
  # runs on real Ed25519 signatures, honest and with forged witness
  # signatures rejected (RealEd25519SignaturesOnTheProtocolPath); and the
  # ByShard baseline runs each block through the same executor, so one
  # sender's two cross-shard transfers in one block both commit
  # (ByshardTest.CommitsBothCrossShardTransfersOfOneSenderInOneBlock).
  ctest --test-dir "$dir" \
    -R '^ExecutionTest\.|^PartialStateTest\.|^SystemIntegrationTest\.(BatchOneCommitsAtTheEnginesPipelineRounds|RealEd25519SignaturesOnTheProtocolPath)$|^ByshardTest\.CommitsBothCrossShardTransfersOfOneSenderInOneBlock$' \
    --output-on-failure
  # Parallel runtime: fork-join batches and the two job classes (front
  # halves ahead of background shard jobs, a waiting caller running queued
  # front halves, ParallelFor fanning out past queued background jobs,
  # teardown dropping unstarted jobs), jobs of both classes submitted,
  # waited on and cancelled while batches, rounds of background jobs and
  # teardown interleave (TaskPoolTest.JobsInterleaveWithBatchesLaunches-
  # AndTeardown), and byte-identical exports at 0, 1 and 4 threads, forged
  # copies that the prepared front halves reject included
  # (AdversaryThreadInvarianceTest.PreparedRejectionsAreThreadInvariant),
  # including the pipelined canonical execution under faithful proofs and
  # a storage crash/rejoin. Fast mode's shard jobs, submitted at each
  # commit, outlive Run(): a shard's reader waits for that shard's job
  # alone and leaves the others outstanding, and canonical_state() and
  # CreateAccounts between runs settle them all, at 0, 1, 2 and 4 workers
  # alike (LaunchOutlivesRunAndSettlesAtItsReader); a reader of an older
  # round leaves them running (ReaderOfAnOlderRoundDoesNotJoin). The serial
  # run's chain tip, GlobalRoot and metrics-JSON digest are pinned here and
  # in DisseminationTest.TreeExportsAreThreadInvariant, in every leg.
  ctest --test-dir "$dir" -R 'TaskPool|ThreadInvariance' --output-on-failure
  # Workload suite: traffic-model determinism, Zipf sanity and the Zipf
  # sampler's pinned draws, scenario rows.
  ctest --test-dir "$dir" -R 'Workload|RngTest' --output-on-failure
  # Critical-path suite: bandwidth-ledger queue/busy accounting, dominant
  # edge attribution, thread-invariant round reports, the trace-sampling
  # timing invariant, marks rebuilt from the round lane's spans, and the
  # execution-phase histogram's one sample per exec round when three
  # storage nodes start it (ExecutionPhaseHasOneSamplePerExecRound).
  ctest --test-dir "$dir" \
    -R 'CriticalPath|^SystemIntegrationTest\.ExecutionPhaseHasOneSamplePerExecRound$' \
    --output-on-failure
  # Dissemination suite: spec grammar, erasure k-of-n round trips with the
  # shuffle kernel against the table kernel over every k-subset (an
  # out-of-bounds vector load surfaces under ASan), tree-vs-direct safety,
  # and Byzantine/crashed relay degradation.
  ctest --test-dir "$dir" -R 'Dissemination|Erasure' --output-on-failure
  # Scenario-matrix smoke cell: one small million-account cell end-to-end
  # through the real binary (spec parsing, lazy funding, JSON export).
  "$dir"/bench/scenario_matrix --rounds=2 --tps=200 \
    --workload=zipf:0.99,accounts:1000000 \
    --out="$dir"/scenario_smoke.json >/dev/null
  grep -q '"committed_txs":' "$dir"/scenario_smoke.json
  # Epoch + soak suites: committee reconfiguration determinism and the
  # chaos-harness spec/replay/invariant plumbing.
  ctest --test-dir "$dir" -R 'Epoch|Soak' --output-on-failure
  # Chaos-soak smoke: 200 rounds of faults + Byzantine adversary across 8
  # committee reconfigurations, with the clean-reference safety cross-check,
  # total supply in both deployments and liveness bounds checked every
  # round (as in every soak below). Must end violation-free.
  "$dir"/bench/soak --rounds=200 --epoch-length=25 --seed=1 --tps=2 \
    --faults='loss:0.02,dup:0.02,jitter:300' \
    --adversary='stateless:equivocate,storage:withhold' \
    --out="$dir"/soak_smoke.json | grep -q 'OK: zero invariant violations'
  grep -q '"violations":\[\]' "$dir"/soak_smoke.json
  # The same chaos soak over relay trees: witness, exec-attestation and
  # vote relays, erasure-coded bodies and their degradation paths under the
  # same faults, equivocation and committee reconfigurations.
  "$dir"/bench/soak --rounds=200 --epoch-length=25 --seed=1 --tps=2 \
    --faults='loss:0.02,dup:0.02,jitter:300' \
    --adversary='stateless:equivocate,storage:withhold' \
    --dissemination=tree \
    --out="$dir"/soak_tree_smoke.json | grep -q 'OK: zero invariant violations'
  grep -q '"violations":\[\]' "$dir"/soak_tree_smoke.json
  epoch_churn_soak "$dir"
}

# Epoch-churn soak smoke, direct and over relay trees: two-round epochs at
# 20 tps under the same faults and adversary, so the leader hand-off
# (coordinator, batch locks, bundle and exec-result pools) runs about 140
# times per deployment with batches in flight. Must end violation-free.
epoch_churn_soak() {
  local dir="$1"
  for diss in direct tree; do
    "$dir"/bench/soak --rounds=300 --epoch-length=2 --seed=3 --tps=20 \
      --faults='loss:0.02,dup:0.02,jitter:300' \
      --adversary='stateless:equivocate,storage:withhold' \
      --dissemination="$diss" \
      --out="$dir"/soak_epoch_$diss.json |
      grep -q 'OK: zero invariant violations'
    grep -q '"violations":\[\]' "$dir"/soak_epoch_$diss.json
  done
}

echo "== plain build + ctest =="
run_suite build

if [[ "${PORYGON_SKIP_SANITIZERS:-0}" != "1" ]]; then
  echo "== address,undefined sanitized build + ctest =="
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    run_suite build-asan -DPORYGON_SANITIZE=address,undefined

  # TSan leg: the pool fan-outs (shard execution, batch crypto) must be
  # race-free with workers actually running, so force a multi-threaded
  # pool via PORYGON_THREADS for the runtime + system suites; Sha256
  # checks the once-initialised kernel choices (SHA-NI and the 16-lane
  # batch kernel) that the pool threads of VerifyBatch and of the SMT
  # rehash read; Smt and ShardedState because per-shard value
  # writes, PutBatch merges and their batched level sweeps run on pool
  # threads, which the loop must not read until the settle; ThreadInvariance
  # also because the shard jobs submitted at a commit outlive Run() until
  # canonical_state() or CreateAccounts settles them, and because the loop
  # reads one shard's result while other shard jobs still write their own
  # shards' subtrees and result slots; SystemIntegration, Epoch,
  # FaultInjection and Soak because RunExecution waits per shard and every
  # other state read settles all shards, across epoch hand-offs and
  # storage crash/recover. Payloads
  # reach pool threads: each copy bound for a stateless node starts its
  # front half (body check, exec-result signature, proposal decode) on the
  # pool as it is sent, reading the shared buffer there while the loop and
  # other copies' jobs read it too, so the message-plane and retention
  # cases run here, with the job queue's stress test (TaskPool) and the
  # forged copies the front halves reject (ThreadInvariance). TSan is
  # incompatible with ASan, hence the third build tree.
  echo "== thread sanitized build + runtime/system ctest =="
  cmake -B build-tsan -S . -DPORYGON_SANITIZE=thread
  cmake --build build-tsan -j "$(nproc)"
  PORYGON_THREADS=4 \
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir build-tsan --output-on-failure \
      -R 'TaskPool|VerifyBatch|ThreadInvariance|SystemIntegration|StorageDb|Db|Adversary|CriticalPath|Dissemination|Sha256|Smt|ShardedState|Epoch|FaultInjection|Soak|MessagePlaneTest|RetentionTest'
  PORYGON_THREADS=4 \
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    epoch_churn_soak build-tsan
fi

echo "check.sh: all suites passed"
# The size ROADMAP.md and CHANGES.md quote: non-blank lines of src/*.{h,cc}
# (printed only, not gated).
src_lines=$(find src -type f \( -name '*.h' -o -name '*.cc' \) -exec cat {} + |
  grep -c .)
echo "src/ non-blank lines: $src_lines"
