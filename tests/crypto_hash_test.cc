// Tests for SHA-256 and SHA-512 against FIPS 180-4 / NIST example vectors,
// the SHA-NI compression against the portable reference, the one-shot and
// node-sized paths against streaming, the batched entry against the
// one-shot path, and the tx id.

#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "tx/transaction.h"

namespace porygon::crypto {
namespace {

TEST(Sha256Test, EmptyInput) {
  EXPECT_EQ(HashToHex(Sha256::Hash(ByteView(std::string_view("")))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HashToHex(Sha256::Hash(ByteView(std::string_view("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  const std::string msg =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(HashToHex(Sha256::Hash(ByteView(std::string_view(msg)))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(ByteView(std::string_view(chunk)));
  EXPECT_EQ(HashToHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// One-shot padding at every boundary: a tail of 55 bytes is the longest that
// still fits 0x80 and the length in one block; 56..63 spill into a second
// block; 64 and 119/120 repeat the pattern one block later.
TEST(Sha256Test, PaddingBoundaries) {
  const struct {
    size_t length;
    const char* hex;
  } kVectors[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& v : kVectors) {
    const std::string msg(v.length, 'a');
    EXPECT_EQ(HashToHex(Sha256::Hash(ByteView(std::string_view(msg)))), v.hex)
        << v.length << " bytes";
    // Byte-at-a-time absorption reaches Finish with the same tail.
    Sha256 h;
    for (char c : msg) h.Update(ByteView(std::string_view(&c, 1)));
    EXPECT_EQ(HashToHex(h.Finish()), v.hex) << v.length << " bytes, split";
  }
}

TEST(Sha256Test, ShaNiMatchesPortableCompression) {
  if (!internal::HasShaNi()) GTEST_SKIP() << "CPU lacks SHA-NI";
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t count = 1 + trial % 4;
    uint8_t blocks[4 * 64];
    for (size_t i = 0; i < count * 64; ++i) {
      blocks[i] = static_cast<uint8_t>(rng.NextU64());
    }
    uint32_t portable[8];
    for (auto& word : portable) word = static_cast<uint32_t>(rng.NextU64());
    uint32_t shani[8];
    std::memcpy(shani, portable, sizeof(shani));
    internal::CompressPortable(portable, blocks, count);
    internal::CompressShaNi(shani, blocks, count);
    ASSERT_EQ(std::memcmp(portable, shani, sizeof(shani)), 0)
        << "trial " << trial << ", " << count << " blocks";
  }
}

Hash256 Streamed(std::initializer_list<ByteView> parts) {
  Sha256 h;
  for (ByteView part : parts) h.Update(part);
  return h.Finish();
}

Hash256 RandomDigest(Rng* rng) {
  Hash256 h;
  for (auto& byte : h) byte = static_cast<uint8_t>(rng->NextU64());
  return h;
}

// Every length through both one-shot limits (55 bytes: one block; 119: two)
// and past them onto the streaming path, with the two-part form split at
// every point. The portable and SHA-NI one-shot entries are called
// explicitly as well as through the CPUID choice.
TEST(Sha256Test, OneShotMatchesStreamingAtEveryLength) {
  Rng rng(21);
  for (size_t length = 0; length <= 130; ++length) {
    Bytes msg(length);
    for (auto& byte : msg) byte = static_cast<uint8_t>(rng.NextU64());
    const Hash256 want = Streamed({msg});
    EXPECT_EQ(Sha256::Hash(msg), want) << length << " bytes";
    for (size_t split = 0; split <= length; ++split) {
      const ByteView a(msg.data(), split);
      const ByteView b(msg.data() + split, length - split);
      ASSERT_EQ(Sha256::Hash(a, b), want) << length << " bytes at " << split;
      if (length > Sha256::kMaxOneShot) continue;
      ASSERT_EQ(internal::OneShot(a, b, internal::HashPaddedPortable), want)
          << length << " bytes at " << split << ", portable";
      if (internal::HasShaNi()) {
        ASSERT_EQ(internal::OneShot(a, b, internal::HashPaddedShaNi), want)
            << length << " bytes at " << split << ", SHA-NI";
      }
    }
  }
}

// The node forms against the streaming hash of the concatenation: every tag
// byte, random nodes, and the all-zero and all-ones nodes. The portable and
// SHA-NI one-shot entries are called explicitly as well as through the
// public forms.
TEST(Sha256Test, NodeHashesMatchStreaming) {
  Rng rng(65);
  Hash256 zeros;
  zeros.fill(0);
  Hash256 ones;
  ones.fill(0xff);
  std::vector<std::pair<Hash256, Hash256>> pairs{
      {zeros, zeros}, {ones, ones}, {zeros, ones}, {ones, zeros}};
  for (int i = 0; i < 300; ++i) {
    pairs.emplace_back(RandomDigest(&rng), RandomDigest(&rng));
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& [l, r] = pairs[i];
    const Hash256 nodes = Streamed({l, r});
    EXPECT_EQ(Sha256::HashNodes(l, r), nodes) << i;
    EXPECT_EQ(internal::OneShot(l, r, internal::HashPaddedPortable), nodes)
        << i;
    if (internal::HasShaNi()) {
      EXPECT_EQ(internal::OneShot(l, r, internal::HashPaddedShaNi), nodes)
          << i;
    }
    const uint8_t tag = static_cast<uint8_t>(i);
    uint8_t tagged_l[33];
    tagged_l[0] = tag;
    std::memcpy(tagged_l + 1, l.data(), l.size());
    const ByteView tl(tagged_l, sizeof(tagged_l));
    const Hash256 tagged = Streamed({tl, r});
    EXPECT_EQ(Sha256::HashTaggedNodes(tag, l, r), tagged) << i;
    EXPECT_EQ(internal::OneShot(tl, r, internal::HashPaddedPortable), tagged)
        << i;
    if (internal::HasShaNi()) {
      EXPECT_EQ(internal::OneShot(tl, r, internal::HashPaddedShaNi), tagged)
          << i;
    }
  }
}

// Every one-shot length and batch sizes around the lane count and the
// small-batch cutover, against one Hash call per message: through the
// dispatching entry, and through the 16-lane kernel directly when the CPU
// has it. Each batch sits in a buffer of exactly its size, so a kernel
// read past the input surfaces under ASan.
TEST(Sha256Test, HashBatchMatchesOneShot) {
  Rng rng(27);
  const size_t kCounts[] = {0, 1, 7, 8, 15, 16, 17, 33, 2000};
  for (size_t length = 0; length <= Sha256::kMaxOneShot; ++length) {
    for (size_t count : kCounts) {
      std::vector<uint8_t> messages(length * count);
      for (auto& byte : messages) byte = static_cast<uint8_t>(rng.NextU64());
      std::vector<Hash256> want(count);
      for (size_t i = 0; i < count; ++i) {
        want[i] = Sha256::Hash(ByteView(messages.data() + i * length, length));
      }
      std::vector<Hash256> got(count);
      Sha256::HashBatch(messages.data(), length, count, got.data());
      ASSERT_EQ(got, want) << count << " x " << length << " bytes";
      if (!internal::HasAvx512()) continue;
      std::vector<Hash256> wide(count);
      internal::HashBatchAvx512(messages.data(), length, count, wide.data());
      ASSERT_EQ(wide, want) << count << " x " << length << " bytes, AVX-512";
    }
  }
}

// Each test runs in its own process, so these threads race to the first
// use of the once-initialised kernel choices (TSan leg): the streaming and
// one-shot paths, the node forms, and the batched entry the SMT rehash and
// the block checks run on pool threads.
TEST(Sha256Test, ConcurrentFirstUseAgrees) {
  const std::string msg(1000, 'a');
  Hash256 l;
  l.fill(0x11);
  Hash256 r;
  r.fill(0x22);
  constexpr size_t kBatch = 40;
  const std::string batch_input(65 * kBatch, 'b');
  struct Digests {
    Hash256 streamed, one_shot, nodes, tagged;
    std::vector<Hash256> batch = std::vector<Hash256>(kBatch);
  };
  std::vector<Digests> digests(4);
  std::vector<std::thread> threads;
  for (auto& d : digests) {
    threads.emplace_back([&] {
      d.streamed = Sha256::Hash(ByteView(std::string_view(msg)));
      d.one_shot = Sha256::Hash(ByteView(std::string_view(msg).substr(0, 40)));
      d.nodes = Sha256::HashNodes(l, r);
      d.tagged = Sha256::HashTaggedNodes(0x01, l, r);
      Sha256::HashBatch(reinterpret_cast<const uint8_t*>(batch_input.data()),
                        65, kBatch, d.batch.data());
    });
  }
  for (auto& t : threads) t.join();
  const uint8_t tag = 0x01;
  const Hash256 one_batch_message =
      Streamed({std::string_view(batch_input).substr(0, 65)});
  for (const auto& d : digests) {
    EXPECT_EQ(HashToHex(d.streamed),
              "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3");
    EXPECT_EQ(d.one_shot, Streamed({std::string_view(msg).substr(0, 40)}));
    EXPECT_EQ(d.nodes, Streamed({l, r}));
    EXPECT_EQ(d.tagged, Streamed({ByteView(&tag, 1), l, r}));
    for (const Hash256& h : d.batch) EXPECT_EQ(h, one_batch_message);
  }
}

TEST(Sha256Test, TransactionIdHashesTheEncodedBody) {
  tx::Transaction t;
  t.from = 0x0102030405060708ULL;
  t.to = 42;
  t.amount = ~0ULL;
  t.nonce = 7;
  t.submitted_at = 123456789;
  t.signature.fill(0xAB);
  const Bytes encoded = t.Encode();
  ASSERT_GE(encoded.size(), tx::Transaction::kBodySize);
  EXPECT_EQ(t.Id(), Sha256::Hash(ByteView(encoded.data(),
                                          tx::Transaction::kBodySize)));
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries at odd offsets. 0123456789.";
  auto oneshot = Sha256::Hash(ByteView(std::string_view(msg)));
  for (size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.Update(ByteView(std::string_view(msg).substr(0, split)));
    h.Update(ByteView(std::string_view(msg).substr(split)));
    EXPECT_EQ(h.Finish(), oneshot) << "split at " << split;
  }
}

TEST(Sha256Test, HashNodesMatchesConcatenation) {
  const Hash256 a = Sha256::Hash(ToBytes("left-subtree"));
  const Hash256 b = Sha256::Hash(ToBytes("right-subtree"));
  Bytes ab(a.begin(), a.end());
  ab.insert(ab.end(), b.begin(), b.end());
  EXPECT_EQ(Sha256::HashNodes(a, b), Sha256::Hash(ab));
  EXPECT_EQ(Sha256::Hash(a, b), Sha256::Hash(ab));
}

TEST(Sha256Test, PrefixU64IsBigEndian) {
  Hash256 h;
  h.fill(0);
  h[0] = 0x01;
  h[7] = 0xff;
  EXPECT_EQ(HashPrefixU64(h), 0x01000000000000ffULL);
}

TEST(Sha512Test, EmptyInput) {
  auto d = Sha512::Hash(ByteView(std::string_view("")));
  EXPECT_EQ(HexEncode(ByteView(d.data(), d.size())),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512Test, Abc) {
  auto d = Sha512::Hash(ByteView(std::string_view("abc")));
  EXPECT_EQ(HexEncode(ByteView(d.data(), d.size())),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, TwoBlockMessage) {
  const std::string msg =
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
  auto d = Sha512::Hash(ByteView(std::string_view(msg)));
  EXPECT_EQ(HexEncode(ByteView(d.data(), d.size())),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512Test, IncrementalMatchesOneShot) {
  std::string msg(300, 'x');
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<char>(i * 7);
  auto oneshot = Sha512::Hash(ByteView(std::string_view(msg)));
  Sha512 h;
  h.Update(ByteView(std::string_view(msg).substr(0, 129)));
  h.Update(ByteView(std::string_view(msg).substr(129)));
  EXPECT_EQ(h.Finish(), oneshot);
}

}  // namespace
}  // namespace porygon::crypto
