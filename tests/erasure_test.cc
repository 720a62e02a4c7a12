// Systematic erasure coding over GF(2^8) (common/erasure): k-of-n
// reconstruction from every chunk subset shape, parity-only recovery,
// corrupt/short chunk handling, geometry validation, and the bit-exact
// determinism the dissemination layer's chunk mesh depends on.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/erasure.h"
#include "common/rng.h"

namespace porygon::erasure {
namespace {

Bytes RandomPayload(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes out(size);
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<uint8_t>(rng.NextBelow(256));
  }
  return out;
}

std::vector<std::optional<Bytes>> Holes(const std::vector<Bytes>& chunks,
                                        const std::vector<int>& drop) {
  std::vector<std::optional<Bytes>> out(chunks.begin(), chunks.end());
  for (int i : drop) out[i] = std::nullopt;
  return out;
}

TEST(ErasureTest, RoundTripsWithAllChunksPresent) {
  const Bytes payload = RandomPayload(10'000, 1);
  auto chunks = Encode(payload, 4, 6);
  ASSERT_TRUE(chunks.ok()) << chunks.status().message();
  ASSERT_EQ(chunks->size(), 6u);
  for (const Bytes& c : *chunks) {
    EXPECT_EQ(c.size(), ChunkSize(payload.size(), 4));
  }
  auto decoded = Decode(Holes(*chunks, {}), 4, 6);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(*decoded, payload);
}

TEST(ErasureTest, AnyKOfNSubsetReconstructs) {
  const Bytes payload = RandomPayload(3'333, 2);
  auto chunks = Encode(payload, 3, 5);
  ASSERT_TRUE(chunks.ok());
  // Every way of dropping 2 of the 5 chunks still reconstructs exactly.
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      auto decoded = Decode(Holes(*chunks, {a, b}), 3, 5);
      ASSERT_TRUE(decoded.ok()) << "dropped " << a << "," << b << ": "
                                << decoded.status().message();
      EXPECT_EQ(*decoded, payload) << "dropped " << a << "," << b;
    }
  }
}

TEST(ErasureTest, ParityOnlyReconstructs) {
  // All systematic chunks lost; the payload survives on parity alone
  // (k = 2, n = 4: chunks 2 and 3 are parity).
  const Bytes payload = RandomPayload(701, 3);
  auto chunks = Encode(payload, 2, 4);
  ASSERT_TRUE(chunks.ok());
  auto decoded = Decode(Holes(*chunks, {0, 1}), 2, 4);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(*decoded, payload);
}

TEST(ErasureTest, FewerThanKChunksFailsPrecondition) {
  const Bytes payload = RandomPayload(500, 4);
  auto chunks = Encode(payload, 4, 6);
  ASSERT_TRUE(chunks.ok());
  auto decoded = Decode(Holes(*chunks, {0, 2, 4}), 4, 6);
  EXPECT_TRUE(decoded.status().IsFailedPrecondition());
}

TEST(ErasureTest, CorruptChunkIsDetectedViaLengthPrefix) {
  // Flip bytes in a surviving chunk: reconstruction from a set containing
  // the corruption must not silently return garbage of the right shape.
  // The length prefix is part of the coded payload, so wholesale
  // corruption scrambles it and Decode reports kFailedPrecondition.
  const Bytes payload = RandomPayload(2'048, 5);
  auto chunks = Encode(payload, 3, 5);
  ASSERT_TRUE(chunks.ok());
  std::vector<std::optional<Bytes>> in = Holes(*chunks, {3, 4});
  for (size_t i = 0; i < in[0]->size(); ++i) (*in[0])[i] ^= 0xFF;
  auto decoded = Decode(in, 3, 5);
  if (decoded.ok()) {
    EXPECT_NE(*decoded, payload);  // Never silently "correct".
  } else {
    EXPECT_TRUE(decoded.status().IsFailedPrecondition());
  }
}

TEST(ErasureTest, MalformedInputsAreInvalidArgument) {
  const Bytes payload = RandomPayload(64, 6);
  EXPECT_TRUE(Encode(payload, 0, 4).status().IsInvalidArgument());
  EXPECT_TRUE(Encode(payload, 5, 4).status().IsInvalidArgument());
  EXPECT_TRUE(Encode(payload, 4, 256).status().IsInvalidArgument());

  auto chunks = Encode(payload, 2, 3);
  ASSERT_TRUE(chunks.ok());
  // Wrong vector length for n.
  std::vector<std::optional<Bytes>> two(chunks->begin(), chunks->begin() + 2);
  EXPECT_TRUE(Decode(two, 2, 3).status().IsInvalidArgument());
  // Unequal chunk sizes.
  std::vector<std::optional<Bytes>> uneven = Holes(*chunks, {});
  uneven[1]->push_back(0);
  EXPECT_TRUE(Decode(uneven, 2, 3).status().IsInvalidArgument());
}

TEST(ErasureTest, EmptyAndTinyPayloadsRoundTrip) {
  for (size_t size : {size_t{0}, size_t{1}, size_t{7}}) {
    const Bytes payload = RandomPayload(size, 7 + size);
    auto chunks = Encode(payload, 3, 5);
    ASSERT_TRUE(chunks.ok()) << size;
    auto decoded = Decode(Holes(*chunks, {1, 3}), 3, 5);
    ASSERT_TRUE(decoded.ok()) << size << ": " << decoded.status().message();
    EXPECT_EQ(*decoded, payload) << size;
  }
}

TEST(ErasureTest, EncodingIsDeterministic) {
  // Chunk bytes feed wire digests and the sim's bandwidth model, so
  // encode must be a pure function of (payload, k, n).
  const Bytes payload = RandomPayload(5'000, 8);
  auto a = Encode(payload, 4, 7);
  auto b = Encode(payload, 4, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

// The kernel Encode/Decode run: the shuffle kernel where the CPU has it,
// else the portable one (then the agreement below is trivially true).
internal::MulAddFn FastKernel() {
  return internal::HasShuffleKernel() ? internal::MulAddShuffle
                                      : internal::MulAddPortable;
}

TEST(ErasureTest, ShuffleMultiplyMatchesTheTablesForEveryCoefficient) {
  const internal::MulAddFn fast = FastKernel();
  // Lengths around the 32-byte lanes, so the scalar tail runs too.
  for (size_t len : {size_t{1}, size_t{31}, size_t{32}, size_t{65},
                     size_t{100}}) {
    const Bytes src = RandomPayload(len, 100 + len);
    const Bytes seed = RandomPayload(len, 200 + len);
    for (int c = 0; c < 256; ++c) {
      Bytes want = seed;
      Bytes got = seed;
      internal::MulAddPortable(static_cast<uint8_t>(c), src.data(),
                               want.data(), len);
      fast(static_cast<uint8_t>(c), src.data(), got.data(), len);
      ASSERT_EQ(got, want) << "c=" << c << " len=" << len;
    }
  }
}

TEST(ErasureTest, KernelsAgreeOnEveryKSubset) {
  const internal::MulAddFn fast = FastKernel();
  uint64_t seed = 300;
  for (auto [k, n] : {std::pair{2, 3}, std::pair{4, 6}, std::pair{5, 8}}) {
    for (size_t size : {size_t{0}, size_t{1}, size_t{57}, size_t{4'099}}) {
      const Bytes payload = RandomPayload(size, ++seed);
      auto want = internal::EncodeWith(internal::MulAddPortable, payload, k,
                                       n);
      auto got = internal::EncodeWith(fast, payload, k, n);
      auto pub = Encode(payload, k, n);
      ASSERT_TRUE(want.ok() && got.ok() && pub.ok());
      ASSERT_EQ(*got, *want) << k << "/" << n << " size " << size;
      ASSERT_EQ(*pub, *want) << k << "/" << n << " size " << size;
      // Every k-subset of the n chunks: the others go missing.
      for (uint32_t mask = 0; mask < (1u << n); ++mask) {
        if (__builtin_popcount(mask) != k) continue;
        std::vector<int> drop;
        for (int i = 0; i < n; ++i) {
          if ((mask & (1u << i)) == 0) drop.push_back(i);
        }
        const auto holes = Holes(*want, drop);
        auto ref = internal::DecodeWith(internal::MulAddPortable, holes, k, n);
        auto vec = internal::DecodeWith(fast, holes, k, n);
        auto dec = Decode(holes, k, n);
        ASSERT_TRUE(ref.ok() && vec.ok() && dec.ok()) << "mask " << mask;
        EXPECT_EQ(*ref, payload) << k << "/" << n << " mask " << mask;
        EXPECT_EQ(*vec, payload) << k << "/" << n << " mask " << mask;
        EXPECT_EQ(*dec, payload) << k << "/" << n << " mask " << mask;
      }
    }
  }
}

}  // namespace
}  // namespace porygon::erasure
