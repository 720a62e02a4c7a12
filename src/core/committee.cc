#include "core/committee.h"

#include "common/wire.h"

namespace porygon::core {

Bytes Sortition::SeedFor(uint64_t round, const crypto::Hash256& prev_hash) {
  return wire::Writer()
      .Str("porygon.sortition")
      .U64(round)
      .Array(prev_hash)
      .Take();
}

namespace {
Assignment Derive(const crypto::VrfProof& proof, double ordering_threshold,
                  double execution_threshold, int shard_bits) {
  Assignment a;
  a.proof = proof;
  a.sortition = crypto::VrfOutputToUnit(proof.output);
  if (a.sortition < ordering_threshold) {
    a.role = Role::kOrdering;
  } else if (a.sortition < ordering_threshold + execution_threshold) {
    a.role = Role::kExecution;
    a.shard = crypto::VrfOutputLastBits(proof.output, shard_bits);
  } else {
    a.role = Role::kIdle;
  }
  return a;
}
}  // namespace

Assignment Sortition::Assign(crypto::CryptoProvider* provider,
                             const crypto::PrivateKey& key, uint64_t round,
                             const crypto::Hash256& prev_hash,
                             double ordering_threshold,
                             double execution_threshold, int shard_bits) {
  Bytes seed = SeedFor(round, prev_hash);
  crypto::VrfProof proof = provider->Prove(key, seed);
  return Derive(proof, ordering_threshold, execution_threshold, shard_bits);
}

bool Sortition::Verify(crypto::CryptoProvider* provider,
                       const crypto::PublicKey& pub, uint64_t round,
                       const crypto::Hash256& prev_hash,
                       double ordering_threshold, double execution_threshold,
                       int shard_bits, const Assignment& claimed) {
  Bytes seed = SeedFor(round, prev_hash);
  if (!provider->VerifyProof(pub, seed, claimed.proof)) return false;
  Assignment expected = Derive(claimed.proof, ordering_threshold,
                               execution_threshold, shard_bits);
  return expected.role == claimed.role && expected.shard == claimed.shard &&
         expected.sortition == claimed.sortition;
}

}  // namespace porygon::core
