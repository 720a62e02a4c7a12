#include "crypto/provider.h"

#include <cstring>

#include "crypto/sha256.h"
#include "runtime/task_pool.h"

namespace porygon::crypto {

std::vector<uint8_t> CryptoProvider::VerifyBatch(
    const std::vector<VerifyJob>& jobs) {
  std::vector<uint8_t> ok(jobs.size(), 0);
  auto one = [&](size_t i) {
    const VerifyJob& j = jobs[i];
    ok[i] = Verify(j.pub, ByteView(j.message.data(), j.message.size()), j.sig)
                ? 1
                : 0;
  };
  if (pool_ == nullptr) {
    for (size_t i = 0; i < jobs.size(); ++i) one(i);
  } else {
    pool_->ParallelFor(jobs.size(), one);
  }
  return ok;
}

KeyPair Ed25519Provider::GenerateKeyPair(Rng* rng) {
  return Ed25519GenerateKeyPair(rng);
}

Signature Ed25519Provider::Sign(const PrivateKey& priv, ByteView message) {
  return Ed25519Sign(priv, message);
}

bool Ed25519Provider::Verify(const PublicKey& pub, ByteView message,
                             const Signature& sig) {
  return Ed25519Verify(pub, message, sig);
}

VrfProof Ed25519Provider::Prove(const PrivateKey& priv, ByteView input) {
  return VrfProve(priv, input);
}

bool Ed25519Provider::VerifyProof(const PublicKey& pub, ByteView input,
                                  const VrfProof& proof) {
  return VrfVerify(pub, input, proof);
}

size_t FastProvider::KeyHash::operator()(const PublicKey& k) const {
  uint64_t v;
  std::memcpy(&v, k.data(), sizeof(v));
  return static_cast<size_t>(v);
}

namespace {
Signature FastTag(const PrivateKey& priv, ByteView message) {
  const Hash256 tag = Sha256::Hash(priv, message);
  Signature sig;
  std::memcpy(sig.data(), tag.data(), 32);
  // Second half binds the tag again under a tweaked prefix so that the
  // signature is 64 bytes like Ed25519 (sizes drive the bandwidth model).
  const uint8_t tweak = 0x5a;
  const Hash256 tag2 = Sha256::Hash(ByteView(&tweak, 1), tag);
  std::memcpy(sig.data() + 32, tag2.data(), 32);
  return sig;
}
}  // namespace

KeyPair FastProvider::GenerateKeyPair(Rng* rng) {
  PrivateKey seed;
  Bytes random = rng->NextBytes(seed.size());
  std::memcpy(seed.data(), random.data(), seed.size());
  // Public key is a hash of the seed: unique, unlinkable, and 32 bytes.
  Hash256 pub_hash = Sha256::Hash(ByteView(seed.data(), seed.size()));
  PublicKey pub;
  std::memcpy(pub.data(), pub_hash.data(), 32);
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry_[pub] = seed;
  }
  return KeyPair{seed, pub};
}

Signature FastProvider::Sign(const PrivateKey& priv, ByteView message) {
  return FastTag(priv, message);
}

bool FastProvider::Verify(const PublicKey& pub, ByteView message,
                          const Signature& sig) {
  PrivateKey priv;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = registry_.find(pub);
    if (it == registry_.end()) return false;
    priv = it->second;
  }
  return FastTag(priv, message) == sig;
}

VrfProof FastProvider::Prove(const PrivateKey& priv, ByteView input) {
  Bytes msg = ToBytes("porygon.vrf.v1");
  msg.insert(msg.end(), input.begin(), input.end());
  VrfProof p;
  p.proof = FastTag(priv, msg);
  p.output = Sha256::Hash(ByteView(p.proof.data(), p.proof.size()));
  return p;
}

bool FastProvider::VerifyProof(const PublicKey& pub, ByteView input,
                               const VrfProof& proof) {
  Bytes msg = ToBytes("porygon.vrf.v1");
  msg.insert(msg.end(), input.begin(), input.end());
  if (!Verify(pub, msg, proof.proof)) return false;
  return Sha256::Hash(ByteView(proof.proof.data(), proof.proof.size())) ==
         proof.output;
}

}  // namespace porygon::crypto
