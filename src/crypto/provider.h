#ifndef PORYGON_CRYPTO_PROVIDER_H_
#define PORYGON_CRYPTO_PROVIDER_H_

#include <memory>
#include <mutex>
#include <unordered_map>

#include <vector>

#include "common/bytes.h"
#include "crypto/ed25519.h"
#include "crypto/vrf.h"

namespace porygon::runtime {
class TaskPool;
}  // namespace porygon::runtime

namespace porygon::crypto {

/// Abstract signing/verification backend. The protocol engine is written
/// against this interface so that:
///   - runs use `FastProvider` by default, whose tags are SHA-256 MACs
///     resolved through an in-process key registry. It keeps the exact
///     message/signature sizes (64-byte tags) so the network cost model is
///     unchanged; only CPU cost differs.
///   - `SystemOptions::use_ed25519` swaps in real Ed25519
///     (`Ed25519Provider`); a small deployment test runs the protocol path
///     on it, honest and with forged witness signatures.
class CryptoProvider {
 public:
  virtual ~CryptoProvider() = default;

  /// Creates an identity; the provider may record it for verification.
  virtual KeyPair GenerateKeyPair(Rng* rng) = 0;

  virtual Signature Sign(const PrivateKey& priv, ByteView message) = 0;
  virtual bool Verify(const PublicKey& pub, ByteView message,
                      const Signature& sig) = 0;

  /// VRF evaluation/verification consistent with Sign/Verify.
  virtual VrfProof Prove(const PrivateKey& priv, ByteView input) = 0;
  virtual bool VerifyProof(const PublicKey& pub, ByteView input,
                           const VrfProof& proof) = 0;

  // --- Batch verification --------------------------------------------------
  // Independent signature verifications fan out on the attached TaskPool;
  // results come back in job order, so callers observe exactly what a
  // serial loop over Verify would produce (byte-identical for any thread
  // count). Jobs own their message bytes: callers may batch across messages
  // that go out of scope before the batch runs.
  struct VerifyJob {
    PublicKey pub;
    Bytes message;
    Signature sig;
  };

  /// One result byte per job (1 = valid), in job order. Runs serially when
  /// no pool is attached. Elements use uint8_t, not bool: parallel writers
  /// need one addressable byte per index.
  std::vector<uint8_t> VerifyBatch(const std::vector<VerifyJob>& jobs);

  /// Attaches the pool VerifyBatch fans out on (nullptr = serial).
  /// Implementations' Verify must be safe to call concurrently once a pool
  /// is attached (both shipped providers' are).
  void SetTaskPool(runtime::TaskPool* pool) { pool_ = pool; }
  runtime::TaskPool* task_pool() const { return pool_; }

 private:
  runtime::TaskPool* pool_ = nullptr;
};

/// Real Ed25519 + hash-based VRF.
class Ed25519Provider : public CryptoProvider {
 public:
  KeyPair GenerateKeyPair(Rng* rng) override;
  Signature Sign(const PrivateKey& priv, ByteView message) override;
  bool Verify(const PublicKey& pub, ByteView message,
              const Signature& sig) override;
  VrfProof Prove(const PrivateKey& priv, ByteView input) override;
  bool VerifyProof(const PublicKey& pub, ByteView input,
                   const VrfProof& proof) override;
};

/// Simulation-only backend: tag = SHA-256(priv || message) replicated to 64
/// bytes; verification looks the private key up from the public key in a
/// registry. Honest-node simulations never forge, so this preserves protocol
/// behaviour while cutting CPU cost by ~three orders of magnitude.
class FastProvider : public CryptoProvider {
 public:
  KeyPair GenerateKeyPair(Rng* rng) override;
  Signature Sign(const PrivateKey& priv, ByteView message) override;
  bool Verify(const PublicKey& pub, ByteView message,
              const Signature& sig) override;
  VrfProof Prove(const PrivateKey& priv, ByteView input) override;
  bool VerifyProof(const PublicKey& pub, ByteView input,
                   const VrfProof& proof) override;

 private:
  struct KeyHash {
    size_t operator()(const PublicKey& k) const;
  };

  std::mutex mu_;
  std::unordered_map<PublicKey, PrivateKey, KeyHash> registry_;
};

}  // namespace porygon::crypto

#endif  // PORYGON_CRYPTO_PROVIDER_H_
