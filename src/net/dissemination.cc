#include "net/dissemination.h"

#include <string>

#include "common/clause.h"
#include "common/erasure.h"

namespace porygon::net {

namespace {

constexpr clause::Named<DisseminationMode> kModes[] = {
    {DisseminationMode::kDirect, "direct"},
    {DisseminationMode::kTree, "tree"},
};

}  // namespace

const char* DisseminationModeName(DisseminationMode mode) {
  return clause::NameOf(kModes, mode);
}

Result<DisseminationSpec> DisseminationSpec::Parse(const std::string& spec) {
  const std::vector<clause::Clause> clauses = clause::Split(spec);
  DisseminationSpec out;
  // The first clause names the mode, like the workload grammar's model head
  // clause; only tree takes parameter clauses.
  if (clauses.empty()) {
    return Status::InvalidArgument(
        "dissemination spec needs a mode head clause (direct|tree)");
  }
  if (!clause::FromName(kModes, clauses[0].text, &out.mode)) {
    return clause::Bad("dissemination", clauses[0].text);
  }
  for (size_t i = 1; i < clauses.size(); ++i) {
    const clause::Clause& c = clauses[i];
    bool ok = false;
    if (out.tree() && c.key == "chunks") {
      const clause::Clause kn = clause::Cut(c.value, '/');
      ok = clause::ParseInt(kn.key, &out.chunk_k) &&
           clause::ParseInt(kn.value, &out.chunk_n);
    } else if (out.tree() && c.key == "strikes") {
      ok = clause::ParseInt(c.value, &out.relay_strikes);
    }
    if (!ok) return clause::Bad("dissemination", c.text);
  }
  PORYGON_RETURN_IF_ERROR(out.Validate());
  return out;
}

std::string DisseminationSpec::ToString() const {
  std::string s = DisseminationModeName(mode);
  if (tree()) {
    s += ",chunks:" + std::to_string(chunk_k) + "/" + std::to_string(chunk_n) +
         ",strikes:" + std::to_string(relay_strikes);
  }
  return s;
}

Status DisseminationSpec::Validate() const {
  if (!tree()) return Status::Ok();
  if (chunk_k < 2 || chunk_n <= chunk_k || chunk_n > erasure::kMaxChunks) {
    return Status::InvalidArgument(
        "dissemination: chunks need 2 <= k < n <= 255");
  }
  if (relay_strikes < 1) {
    return Status::InvalidArgument("dissemination: strikes must be >= 1");
  }
  return Status::Ok();
}

bool operator==(const DisseminationSpec& a, const DisseminationSpec& b) {
  return a.mode == b.mode && a.chunk_k == b.chunk_k &&
         a.chunk_n == b.chunk_n && a.relay_strikes == b.relay_strikes;
}

int Dissemination::AggregatorIndex(size_t members, uint64_t round,
                                   uint64_t stripe) {
  if (members < 2) return -1;  // Aggregating for one receiver saves nothing.
  return static_cast<int>((round + stripe) % members);
}

NodeId Dissemination::AggregatorFor(const std::vector<NodeId>& members,
                                    uint64_t round, uint64_t stripe) {
  int idx = AggregatorIndex(members.size(), round, stripe);
  return idx < 0 ? kInvalidNode : members[static_cast<size_t>(idx)];
}

NodeId Dissemination::VoteRelay(const std::vector<NodeId>& oc, NodeId leader,
                                uint64_t instance) const {
  if (!tree() || oc.size() < 3) return kInvalidNode;
  const size_t idx = static_cast<size_t>(instance % oc.size());
  return oc[idx] == leader ? oc[(idx + 1) % oc.size()] : oc[idx];
}

NodeId Dissemination::ExecRelay(const std::vector<NodeId>& members,
                                uint64_t round) const {
  return tree() ? AggregatorFor(members, round, 1) : kInvalidNode;
}

NodeId Dissemination::WitnessRelay(
    const std::vector<NodeId>& members, uint64_t batch,
    const std::function<bool(NodeId)>& skip) const {
  if (!tree()) return kInvalidNode;
  const int base = AggregatorIndex(members.size(), batch, 0);
  if (base < 0) return kInvalidNode;
  for (size_t off = 0; off < members.size(); ++off) {
    const NodeId cand =
        members[(static_cast<size_t>(base) + off) % members.size()];
    if (!skip || !skip(cand)) return cand;
  }
  return kInvalidNode;
}

bool Dissemination::ChunksBodies(size_t members) const {
  const size_t min_members =
      static_cast<size_t>(std::max(spec_.chunk_n, spec_.chunk_k + 2));
  return tree() && members >= min_members &&
         members <= static_cast<size_t>(erasure::kMaxChunks);
}

}  // namespace porygon::net
