#ifndef PORYGON_NET_DISSEMINATION_H_
#define PORYGON_NET_DISSEMINATION_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/network.h"

namespace porygon::net {

/// How fan-in/fan-out message flows are shaped. kDirect is the legacy
/// leader-centric star (every sender talks to every receiver); kTree routes
/// high-volume flows through per-shard aggregation relays and erasure-coded
/// chunk meshes so no single link carries the whole fan-in.
enum class DisseminationMode : uint8_t {
  kDirect = 0,
  kTree = 1,
};

/// Stable lowercase name used in the `--dissemination=` grammar
/// ("direct" / "tree").
const char* DisseminationModeName(DisseminationMode mode);

/// Declarative description of the run's dissemination strategy. Like
/// AdversarySpec / FaultPlan, a spec is pure data: parsed from a CLI
/// string, built programmatically in tests, stamped into bench envelopes,
/// and replayed. It introduces no randomness at all — relay election and
/// chunk placement are arithmetic over (round, shard, index) — so `direct`
/// runs stay byte-identical to builds that predate the abstraction.
struct DisseminationSpec {
  DisseminationMode mode = DisseminationMode::kDirect;
  /// Erasure-coding geometry for tree-mode body propagation: bodies are
  /// split into `chunk_k` data chunks plus `chunk_n - chunk_k` parity
  /// chunks; any chunk_k of chunk_n reconstruct (common/erasure.h).
  int chunk_k = 4;
  int chunk_n = 6;
  /// Consecutive rounds a relay may fail to deliver before the senders
  /// stop routing through it and fall back to direct fan-out (rides the
  /// strike bookkeeping introduced by the storage-failover machinery).
  int relay_strikes = 2;

  bool tree() const { return mode == DisseminationMode::kTree; }

  /// Parses a CLI spec: a mode head clause followed by optional
  /// comma-separated parameter clauses, mirroring `--faults=` /
  /// `--adversary=`:
  ///
  ///   direct                     legacy star (default; no parameters)
  ///   tree                       relay trees + erasure-coded bodies
  ///   chunks:<k>/<n>             erasure geometry (default 4/6)
  ///   strikes:<n>                relay strikes before direct fallback
  ///
  /// e.g. "tree" or "tree,chunks:3/5,strikes:1". Returns kInvalidArgument
  /// naming the bad clause (parameter clauses on "direct" are rejected —
  /// direct has nothing to configure, and silently ignoring them would
  /// mask typos).
  static Result<DisseminationSpec> Parse(const std::string& spec);

  /// Canonical round-trippable form (Parse(ToString()) == *this).
  std::string ToString() const;

  /// Range checks (2 <= k < n <= 255, strikes >= 1); surfaced through
  /// SystemOptions::Validate.
  Status Validate() const;
};

bool operator==(const DisseminationSpec& a, const DisseminationSpec& b);
inline bool operator!=(const DisseminationSpec& a, const DisseminationSpec& b) {
  return !(a == b);
}

/// The one owner of the run's flow shape: every direct-or-tree choice an
/// actor makes is a named answer of this object. Direct mode is the mode in
/// which no relay is ever elected, so each sender's no-relay fallback is the
/// direct flow. Stateless aside from the spec: every election is a pure
/// function of (committee, round, stripe), so any two honest nodes with the
/// same round registry agree on the relay set without extra messages, and
/// rotation-by-round bounds how long a Byzantine relay can sit on a path
/// even before strikes kick in.
class Dissemination {
 public:
  explicit Dissemination(DisseminationSpec spec) : spec_(spec) {}

  const DisseminationSpec& spec() const { return spec_; }
  bool tree() const { return spec_.tree(); }

  /// Index into `members` of the aggregation relay for (round, stripe);
  /// stripe distinguishes co-resident flows (witness vs exec vs vote) so
  /// they do not all pile onto one member. Returns -1 when members is
  /// empty or aggregation cannot help (fewer than 2 members).
  static int AggregatorIndex(size_t members, uint64_t round, uint64_t stripe);

  /// Convenience: the elected relay NodeId, or kInvalidNode.
  static NodeId AggregatorFor(const std::vector<NodeId>& members,
                              uint64_t round, uint64_t stripe);

  // --- Elections (kInvalidNode: no relay; the sender broadcasts) ----------

  /// BA* vote relay of the ordering committee `oc` for `instance`: rotates
  /// per instance and is never `leader`. None in direct mode or for
  /// committees of fewer than 3.
  NodeId VoteRelay(const std::vector<NodeId>& oc, NodeId leader,
                   uint64_t instance) const;

  /// Exec-attestation relay of an ESC for exec round `round` (stripe 1).
  /// A crashed relay is the sender's to detect: it falls back to the
  /// broadcast, with no scan for another member.
  NodeId ExecRelay(const std::vector<NodeId>& members, uint64_t round) const;

  /// Witness relay of batch `batch`'s EC (stripe 0): from the base election,
  /// the first member that `skip` (when set) does not reject — storage
  /// nodes skip struck and crashed relays. None in direct mode or when
  /// every member is skipped.
  NodeId WitnessRelay(const std::vector<NodeId>& members, uint64_t batch,
                      const std::function<bool(NodeId)>& skip = {}) const;

  // --- Per-mode facts ------------------------------------------------------

  /// ESC members, by rank, that ship the full S set with their result: two
  /// in direct mode for redundancy, one in tree mode, where the attestation
  /// relay provides it.
  int FullResultSenders() const { return tree() ? 1 : 2; }

  /// Whether a block body for an EC of `members` is erasure-coded across
  /// it: tree mode only, and only with headroom over k (at least
  /// max(chunk_n, chunk_k + 2) members) and at most kMaxChunks members.
  bool ChunksBodies(size_t members) const;

  /// Storage connections, of `m`, the leader publishes a commit to: all of
  /// them in direct mode; in tree mode min(2, m), since storage gossip
  /// converges from any live entry point.
  size_t CommitFanout(size_t m) const {
    return tree() ? std::min<size_t>(2, m) : m;
  }

  /// Whether a storage node answers an OC member's own committee relay
  /// with a digest ack instead of echoing the full copy back (tree mode).
  bool AcksOcRelays() const { return tree(); }

  /// Bytes billed for a round start carrying a tip of `encoded_size`: a
  /// direct-mode OC member downloads the full block; everyone else, and
  /// every tree-mode member (it already holds the decided block), gets the
  /// 256 B compact header.
  size_t RoundStartBytes(bool in_oc, uint64_t encoded_size) const {
    return in_oc && !tree() ? encoded_size : 256;
  }

 private:
  DisseminationSpec spec_;
};

}  // namespace porygon::net

#endif  // PORYGON_NET_DISSEMINATION_H_
