#include "consensus/ba_star.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace porygon::consensus {

Bytes Vote::SigningBytes() const {
  return wire::Writer()
      .Str("porygon.vote")
      .U64(instance)
      .U32(step)
      .U8(kind)
      .Array(value)
      .Take();
}

void Vote::EncodeTo(wire::Writer* w) const {
  w->U64(instance).U32(step).U8(kind).Array(value).Array(voter).Array(
      signature);
}

void Vote::DecodeFrom(wire::Reader* r) {
  r->U64(&instance)
      .U32(&step)
      .U8(&kind)
      .Require(kind <= kCert, "bad vote kind")
      .Array(&value)
      .Array(&voter)
      .Array(&signature);
}

Bytes Vote::Encode() const {
  wire::Writer w;
  EncodeTo(&w);
  return w.Take();
}

Result<Vote> Vote::Decode(ByteView data) {
  Vote v;
  wire::Reader r(data);
  v.DecodeFrom(&r);
  PORYGON_RETURN_IF_ERROR(r.Finish("vote"));
  return v;
}

size_t DecisionCert::WireSize() const {
  // instance + value + votes.
  return 8 + 32 + votes.size() * (8 + 4 + 1 + 32 + 32 + 64);
}

// The vote count is a u32 (not a varint), capped at 4,096 votes.
Bytes DecisionCert::Encode() const {
  wire::Writer w;
  w.U64(instance).Array(value).U32(static_cast<uint32_t>(votes.size()));
  for (const Vote& v : votes) v.EncodeTo(&w);
  return w.Take();
}

Result<DecisionCert> DecisionCert::Decode(ByteView data) {
  DecisionCert cert;
  wire::Reader r(data);
  uint32_t n = 0;
  r.U64(&cert.instance).Array(&cert.value).U32(&n).Require(n <= 4096,
                                                           "oversized cert");
  if (r.ok()) cert.votes.resize(n);
  for (Vote& v : cert.votes) v.DecodeFrom(&r);
  PORYGON_RETURN_IF_ERROR(r.Finish("cert"));
  return cert;
}

bool BaStar::Key::operator<(const Key& o) const {
  if (step != o.step) return step < o.step;
  if (kind != o.kind) return kind < o.kind;
  return std::memcmp(value.data(), o.value.data(), value.size()) < 0;
}

BaStar::BaStar(crypto::CryptoProvider* provider, crypto::KeyPair identity,
               std::vector<crypto::PublicKey> committee,
               VoteBroadcast broadcast, Decision on_decision)
    : provider_(provider),
      identity_(std::move(identity)),
      committee_(std::move(committee)),
      broadcast_(std::move(broadcast)),
      on_decision_(std::move(on_decision)) {}

bool BaStar::IsMember(const crypto::PublicKey& key) const {
  return std::find(committee_.begin(), committee_.end(), key) !=
         committee_.end();
}

void BaStar::Propose(uint64_t instance, const crypto::Hash256& proposal) {
  if (started_) return;
  started_ = true;
  instance_ = instance;
  proposal_ = proposal;
  if (instruments_.instances != nullptr) instruments_.instances->Increment();
  if (tracer_ != nullptr && tracer_->enabled()) {
    trace_span_ = tracer_->BeginSpan(trace_ctx_, "ba_star", trace_node_);
  }
  CastVote(Vote::kSoft, proposal_);
}

void BaStar::CastVote(uint8_t kind, const crypto::Hash256& value) {
  Vote v;
  v.instance = instance_;
  v.step = step_;
  v.kind = kind;
  v.value = value;
  v.voter = identity_.public_key;
  v.signature = provider_->Sign(identity_.private_key, v.SigningBytes());
  if (instruments_.votes_cast != nullptr) instruments_.votes_cast->Increment();
  Count(v);          // Count our own vote.
  broadcast_(v);     // Ship to the committee.
}

void BaStar::OnVote(const Vote& vote) {
  if (!started_ || decided_) return;
  if (vote.instance != instance_) return;
  if (vote.kind > Vote::kCert) return;
  if (!IsMember(vote.voter)) return;
  if (!provider_->Verify(vote.voter, vote.SigningBytes(), vote.signature)) {
    return;
  }
  if (instruments_.votes_received != nullptr) {
    instruments_.votes_received->Increment();
  }
  Count(vote);
}

void BaStar::OnVotes(const std::vector<Vote>& votes) {
  if (votes.empty() || !started_ || decided_) return;
  // Signature verification is pure, so it batches ahead of counting (one
  // pool fan-out); membership/instance filters run first so only plausible
  // votes are verified. Counting stays strictly in input order, with the
  // serial loop's checks re-evaluated per vote — a quorum reached mid-batch
  // stops later votes from counting, exactly as serial OnVote calls would.
  constexpr size_t kNoJob = static_cast<size_t>(-1);
  std::vector<crypto::CryptoProvider::VerifyJob> jobs;
  std::vector<size_t> job_of(votes.size(), kNoJob);
  for (size_t i = 0; i < votes.size(); ++i) {
    const Vote& v = votes[i];
    if (v.instance != instance_ || v.kind > Vote::kCert ||
        !IsMember(v.voter)) {
      continue;
    }
    job_of[i] = jobs.size();
    jobs.push_back({v.voter, v.SigningBytes(), v.signature});
  }
  if (instruments_.registry != nullptr && !jobs.empty()) {
    instruments_.registry
        ->GetCounter("runtime.tasks", {{"phase", "verify"}})
        ->Add(jobs.size());
  }
  const std::vector<uint8_t> ok = provider_->VerifyBatch(jobs);
  for (size_t i = 0; i < votes.size(); ++i) {
    if (decided_) return;
    if (job_of[i] == kNoJob || ok[job_of[i]] == 0) continue;
    if (instruments_.votes_received != nullptr) {
      instruments_.votes_received->Increment();
    }
    Count(votes[i]);
  }
}

void BaStar::Count(const Vote& vote) {
  // Step synchronization: a valid vote from a later step means the rest of
  // the committee timed out past us (our copy of their earlier traffic was
  // lost or withheld). Steps only ever advance on local timers, so without
  // this fast-forward a delivery-skewed committee holds a permanent step
  // offset and no step ever assembles a same-step quorum — the instance
  // livelocks. Jump to the leader step and re-vote the strongest value
  // there (the same choice OnTimeout would make).
  if (vote.step > step_ && !decided_) {
    step_ = vote.step;
    cert_voted_ = false;
    if (instruments_.registry != nullptr) {
      instruments_.registry->GetCounter("consensus.step_syncs")->Increment();
    }
    crypto::Hash256 best = proposal_;
    size_t best_count = 0;
    for (const auto& [key, supporters] : tally_) {
      if (key.kind == Vote::kSoft && supporters.size() > best_count) {
        best_count = supporters.size();
        best = key.value;
      }
    }
    CastVote(Vote::kSoft, best);
    if (decided_) return;  // Our own catch-up vote completed a quorum.
  }
  // First vote per (voter, step, kind) wins: equivocation is inert for
  // the tally. But a *conflicting* second vote passed the same signature
  // and membership checks as the first, so the pair is attributable
  // misbehavior — record it as evidence before discarding.
  auto& seen = voted_[{vote.step, vote.kind}];
  if (!seen.insert(vote.voter).second) {
    RecordEquivocation(vote);
    return;
  }

  Key key{vote.step, vote.kind, vote.value};
  auto& supporters = tally_[key];
  supporters.insert(vote.voter);
  vote_store_[key].push_back(vote);

  const size_t quorum = QuorumSize();
  if (supporters.size() < quorum) return;

  if (vote.kind == Vote::kSoft && vote.step == step_ && !cert_voted_) {
    cert_voted_ = true;
    CastVote(Vote::kCert, vote.value);
    return;
  }
  if (vote.kind == Vote::kCert && !decided_) {
    decided_ = true;
    decision_value_ = vote.value;
    if (instruments_.decisions != nullptr) instruments_.decisions->Increment();
    if (tracer_ != nullptr && trace_span_ != 0) {
      tracer_->EndSpan(trace_span_);
      trace_span_ = 0;
    }
    DecisionCert cert;
    cert.instance = instance_;
    cert.value = vote.value;
    cert.votes = vote_store_[key];
    on_decision_(cert);
  }
}

void BaStar::RecordEquivocation(const Vote& second) {
  // Look up the vote that won (same voter, step, kind). A same-value
  // duplicate — e.g. our own broadcast echoed back through a relay — is
  // benign and produces no evidence.
  const Vote* first = nullptr;
  for (const auto& [key, votes] : vote_store_) {
    if (key.step != second.step || key.kind != second.kind) continue;
    for (const Vote& v : votes) {
      if (v.voter == second.voter) {
        first = &v;
        break;
      }
    }
    if (first != nullptr) break;
  }
  if (first == nullptr || first->value == second.value) return;
  if (!evidenced_.emplace(second.step, second.kind, second.voter).second) {
    return;
  }
  EquivocationEvidence ev;
  ev.instance = instance_;
  ev.step = second.step;
  ev.kind = second.kind;
  ev.first = *first;
  ev.second = second;
  evidence_.push_back(ev);
  if (evidence_sink_) evidence_sink_(evidence_.back());
}

bool BaStar::AdoptCert(const DecisionCert& cert) {
  if (!started_ || decided_) return false;
  if (cert.instance != instance_) return false;
  std::set<crypto::PublicKey> voters;
  for (const Vote& v : cert.votes) {
    if (v.instance != instance_ || v.kind != Vote::kCert) return false;
    if (v.value != cert.value) return false;
    if (!IsMember(v.voter)) return false;
    if (!voters.insert(v.voter).second) return false;  // Duplicate voter.
    if (!provider_->Verify(v.voter, v.SigningBytes(), v.signature)) {
      return false;
    }
  }
  if (voters.size() < QuorumSize()) return false;
  decided_ = true;
  decision_value_ = cert.value;
  if (instruments_.decisions != nullptr) instruments_.decisions->Increment();
  if (instruments_.registry != nullptr) {
    instruments_.registry->GetCounter("consensus.cert_adoptions")->Increment();
  }
  if (tracer_ != nullptr && trace_span_ != 0) {
    tracer_->EndSpan(trace_span_);
    trace_span_ = 0;
  }
  on_decision_(cert);
  return true;
}

void BaStar::OnTimeout() {
  if (!started_ || decided_) return;
  if (instruments_.timeouts != nullptr) instruments_.timeouts->Increment();
  if (instruments_.registry != nullptr) {
    // Label by the delay this step waited, so exports show the schedule.
    instruments_.registry
        ->GetCounter("consensus.timeouts",
                     {{"delay_us", std::to_string(NextTimeoutDelay())}})
        ->Increment();
  }
  ++step_;
  cert_voted_ = false;
  // Re-vote the value with the strongest soft support seen so far (our own
  // proposal if nothing stronger).
  crypto::Hash256 best = proposal_;
  size_t best_count = 0;
  for (const auto& [key, supporters] : tally_) {
    if (key.kind == Vote::kSoft && supporters.size() > best_count) {
      best_count = supporters.size();
      best = key.value;
    }
  }
  CastVote(Vote::kSoft, best);
}

}  // namespace porygon::consensus
