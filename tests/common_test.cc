// Tests for the common substrate: Status/Result, byte views, hex, the
// binary codec, CRC-32C, the deterministic RNG, Merkle roots, the clause
// grammar every CLI spec is parsed with, the flat uint64_t map and digest
// set, and the radix sort-unique.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/clause.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/flat_map.h"
#include "common/radix_sort.h"
#include "common/wire.h"
#include "core/adversary.h"
#include "crypto/merkle.h"
#include "net/dissemination.h"
#include "workload/soak.h"
#include "workload/traffic.h"

namespace porygon {
namespace {

TEST(StatusTest, OkAndErrorStates) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");

  Status err = Status::NotFound("missing key");
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.IsNotFound());
  EXPECT_EQ(err.ToString(), "NotFound: missing key");
}

TEST(StatusTest, EveryCodeHasConsistentFactoryPredicateAndName) {
  struct Case {
    Status status;
    StatusCode code;
    bool (Status::*predicate)() const;
    const char* name;
  };
  const Case kCases[] = {
      {Status::NotFound("m"), StatusCode::kNotFound, &Status::IsNotFound,
       "NotFound"},
      {Status::InvalidArgument("m"), StatusCode::kInvalidArgument,
       &Status::IsInvalidArgument, "InvalidArgument"},
      {Status::Corruption("m"), StatusCode::kCorruption, &Status::IsCorruption,
       "Corruption"},
      {Status::AlreadyExists("m"), StatusCode::kAlreadyExists,
       &Status::IsAlreadyExists, "AlreadyExists"},
      {Status::FailedPrecondition("m"), StatusCode::kFailedPrecondition,
       &Status::IsFailedPrecondition, "FailedPrecondition"},
      {Status::Unavailable("m"), StatusCode::kUnavailable,
       &Status::IsUnavailable, "Unavailable"},
      {Status::Timeout("m"), StatusCode::kTimeout, &Status::IsTimeout,
       "Timeout"},
      {Status::Internal("m"), StatusCode::kInternal, &Status::IsInternal,
       "Internal"},
      {Status::PermissionDenied("m"), StatusCode::kPermissionDenied,
       &Status::IsPermissionDenied, "PermissionDenied"},
  };
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  for (const Case& c : kCases) {
    EXPECT_FALSE(c.status.ok()) << c.name;
    EXPECT_EQ(c.status.code(), c.code) << c.name;
    EXPECT_TRUE((c.status.*c.predicate)()) << c.name;
    EXPECT_STREQ(StatusCodeName(c.code), c.name);
    EXPECT_EQ(c.status.ToString(), std::string(c.name) + ": m");
    // Each predicate matches exactly its own code.
    for (const Case& other : kCases) {
      if (other.code == c.code) continue;
      EXPECT_FALSE((other.status.*c.predicate)()) << c.name;
    }
  }
}

TEST(StatusTest, ResultHoldsValueOrError) {
  Result<int> value(42);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);

  Result<int> error(Status::Corruption("bad"));
  EXPECT_FALSE(error.ok());
  EXPECT_TRUE(error.status().IsCorruption());
}

TEST(BytesTest, ByteViewCompare) {
  Bytes a = ToBytes("abc");
  Bytes b = ToBytes("abd");
  Bytes prefix = ToBytes("ab");
  EXPECT_LT(ByteView(a).Compare(b), 0);
  EXPECT_GT(ByteView(b).Compare(a), 0);
  EXPECT_EQ(ByteView(a).Compare(a), 0);
  EXPECT_GT(ByteView(a).Compare(prefix), 0);  // Longer sorts after.
  EXPECT_TRUE(ByteView(prefix) < ByteView(a));
}

TEST(BytesTest, HexRoundTrip) {
  Bytes data = {0x00, 0x1f, 0xab, 0xff};
  std::string hex = HexEncode(data);
  EXPECT_EQ(hex, "001fabff");
  auto decoded = HexDecode(hex);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, data);
  // Uppercase accepted.
  EXPECT_TRUE(HexDecode("ABCD").ok());
  // Bad inputs rejected.
  EXPECT_FALSE(HexDecode("abc").ok());
  EXPECT_FALSE(HexDecode("zz").ok());
}

TEST(CodecTest, RoundTripAllTypes) {
  const std::array<uint8_t, 4> arr = {1, 2, 3, 4};
  const Bytes data = wire::Writer()
                         .U8(7)
                         .U16(512)
                         .U32(70000)
                         .U64(1ULL << 40)
                         .Varint(300)
                         .Blob(ToBytes("payload"))
                         .Str("text")
                         .Bool(true)
                         .F64(-0.1)
                         .Array(arr)
                         .Raw(ToBytes("tail"))
                         .Take();

  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0, varint = 0;
  Bytes blob, str;
  bool flag = false;
  double real = 0;
  std::array<uint8_t, 4> arr_out{};
  std::array<uint8_t, 4> tail{};
  wire::Reader r(data);
  r.U8(&u8)
      .U16(&u16)
      .U32(&u32)
      .U64(&u64)
      .Varint(&varint)
      .Blob(&blob)
      .Blob(&str)  // Str is a Blob of the characters.
      .Bool(&flag)
      .F64(&real)
      .Array(&arr_out)
      .Array(&tail);
  ASSERT_TRUE(r.Finish().ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 512);
  EXPECT_EQ(u32, 70000u);
  EXPECT_EQ(u64, 1ULL << 40);
  EXPECT_EQ(varint, 300u);
  EXPECT_EQ(blob, ToBytes("payload"));
  EXPECT_EQ(str, ToBytes("text"));
  EXPECT_TRUE(flag);
  EXPECT_EQ(real, -0.1);
  EXPECT_EQ(arr_out, arr);
  EXPECT_EQ(ByteView(tail), ByteView("tail"));
}

TEST(CodecTest, TruncationDetected) {
  Bytes data = wire::Writer().U64(1234).Take();
  data.resize(4);
  uint64_t v = 0;
  wire::Reader r(data);
  EXPECT_TRUE(r.U64(&v).status().IsCorruption());
  // The first failure sticks: later reads leave their outputs untouched.
  uint8_t b = 0xAA;
  EXPECT_FALSE(r.U8(&b).ok());
  EXPECT_EQ(b, 0xAA);
  EXPECT_FALSE(r.Finish().ok());
}

TEST(CodecTest, VarintBoundaries) {
  const std::pair<uint64_t, size_t> cases[] = {
      {0, 1}, {127, 1}, {128, 2}, {16383, 2}, {16384, 3}, {~0ULL, 10}};
  for (const auto& [v, len] : cases) {
    const Bytes enc = wire::Writer().Varint(v).Take();
    EXPECT_EQ(enc.size(), len) << v;
    uint64_t out = 0;
    wire::Reader r(enc);
    EXPECT_TRUE(r.Varint(&out).Finish().ok()) << v;
    EXPECT_EQ(out, v) << v;
  }
}

TEST(CodecTest, MalformedVarintRejected) {
  uint64_t v = 0;
  const Bytes overlong(11, 0x80);  // Never terminates within 64 bits.
  EXPECT_FALSE(wire::Reader(overlong).Varint(&v).ok());
  Bytes too_big(9, 0xFF);  // 2^64: a second bit in the tenth byte.
  too_big.push_back(0x02);
  EXPECT_FALSE(wire::Reader(too_big).Varint(&v).ok());
  const Bytes bad_bool = {2};
  bool flag = false;
  EXPECT_FALSE(wire::Reader(bad_bool).Bool(&flag).ok());
}

TEST(CodecTest, FinishRejectsTrailingBytes) {
  const Bytes data = {1, 2};
  uint8_t b = 0;
  wire::Reader r(data);
  const Status st = r.U8(&b).Finish("probe");
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_EQ(st.message(), "trailing probe bytes");
}

TEST(CodecTest, CountIsBoundedByTheRemainingInput) {
  // Three 4-byte elements fit in 12 bytes; a fourth does not.
  const Bytes fits = wire::Writer().Varint(3).Raw(Bytes(12, 0)).Take();
  const Bytes forged = wire::Writer().Varint(4).Raw(Bytes(12, 0)).Take();
  uint64_t n = 0;
  EXPECT_TRUE(wire::Reader(fits).Count(&n, 4).ok());
  EXPECT_EQ(n, 3u);
  n = 0;
  EXPECT_TRUE(wire::Reader(forged).Count(&n, 4).status().IsCorruption());
  EXPECT_EQ(n, 0u);
  const Bytes huge = wire::Writer().Varint(uint64_t{1} << 60).Take();
  EXPECT_TRUE(wire::Reader(huge).Count(&n, 1).status().IsCorruption());
}

TEST(CodecTest, ListsRoundTripEveryElementKind) {
  const std::vector<uint32_t> u32s = {1, 70000};
  const std::vector<uint64_t> u64s = {uint64_t{1} << 40};
  const std::vector<std::array<uint8_t, 2>> arrays = {{1, 2}, {3, 4}};
  const std::vector<Bytes> blobs = {ToBytes("a"), {}, ToBytes("bcd")};
  const std::vector<std::vector<uint32_t>> nested = {{5}, {}, {6, 7}};
  const Bytes data = wire::Writer()
                         .List(u32s)
                         .List(u64s)
                         .List(arrays)
                         .List(blobs)
                         .List(nested)
                         .Take();
  // Element layouts match the scalar calls they stand for.
  EXPECT_EQ(HexEncode(wire::Writer().List(u32s).Take()), "020100000070110100");
  EXPECT_EQ(HexEncode(wire::Writer().List(blobs).Take()), "0301610003626364");
  std::vector<uint32_t> u32s_out;
  std::vector<uint64_t> u64s_out;
  std::vector<std::array<uint8_t, 2>> arrays_out;
  std::vector<Bytes> blobs_out;
  std::vector<std::vector<uint32_t>> nested_out;
  wire::Reader r(data);
  r.List(&u32s_out)
      .List(&u64s_out)
      .List(&arrays_out)
      .List(&blobs_out)
      .List(&nested_out);
  ASSERT_TRUE(r.Finish().ok());
  EXPECT_EQ(u32s_out, u32s);
  EXPECT_EQ(u64s_out, u64s);
  EXPECT_EQ(arrays_out, arrays);
  EXPECT_EQ(blobs_out, blobs);
  EXPECT_EQ(nested_out, nested);
}

// A nested type with EncodeTo is written in place behind a one-byte length
// prefix that is widened afterwards; the bytes must equal a Blob of its
// Encode() at every varint width, alone, mid-stream and as list elements.
struct Filler {
  size_t n = 0;
  void EncodeTo(wire::Writer* w) const {
    for (size_t i = 0; i < n; ++i) w->U8(static_cast<uint8_t>(i * 7));
  }
  Bytes Encode() const {
    wire::Writer w;
    EncodeTo(&w);
    return w.Take();
  }
};

TEST(CodecTest, InPlaceNestedMatchesBlobOfEncode) {
  std::vector<Filler> all;
  for (size_t n : {0, 1, 127, 128, 300, 16383, 16384, 70000}) {
    const Filler f{n};
    all.push_back(f);
    wire::Writer w;
    w.U8(9).Nested(f);
    EXPECT_EQ(w.size(), w.view().size());
    w.U16(0xbeef);
    EXPECT_EQ(w.Take(),
              wire::Writer().U8(9).Blob(f.Encode()).U16(0xbeef).Take())
        << n;
  }
  wire::Writer blobs;
  blobs.Varint(all.size());
  for (const Filler& f : all) blobs.Blob(f.Encode());
  EXPECT_EQ(wire::Writer().List(all).Take(), blobs.Take());
}

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283.
  EXPECT_EQ(Crc32c(ToBytes("123456789")), 0xE3069283u);
}

TEST(Crc32Test, ExtendMatchesOneShot) {
  Bytes all = ToBytes("hello world, this is porygon");
  uint32_t oneshot = Crc32c(all);
  uint32_t partial = Crc32cExtend(0, ByteView(all.data(), 5));
  partial = Crc32cExtend(partial, ByteView(all.data() + 5, all.size() - 5));
  // Extend semantics compose over the unmasked value.
  EXPECT_EQ(partial, oneshot);
}

TEST(Crc32Test, MaskRoundTrip) {
  uint32_t crc = Crc32c(ToBytes("data"));
  EXPECT_NE(Crc32cMask(crc), crc);
  EXPECT_EQ(Crc32cUnmask(Crc32cMask(crc)), crc);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(5), b(5), c(6);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  Rng a2(5);
  EXPECT_NE(a2.NextU64(), c.NextU64());
}

TEST(RngTest, NextBelowIsInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, ZipfFavorsLowRanks) {
  Rng rng(4);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextZipf(1000, 1.1) < 10) ++low;
  }
  // With s=1.1, the top-10 ranks carry far more than 1% of the mass.
  EXPECT_GT(low, n / 20);
}

// The batched folds against a fold written from the definition, one
// HashNodes per pair: every size from 1 to 40 (odd last nodes at many
// levels) and 2,000, whose first levels span several staging batches of
// the in-place fold.
TEST(MerklePathTest, BatchedFoldsMatchPairByPairReference) {
  auto reference_root = [](std::vector<crypto::Hash256> level) {
    while (level.size() > 1) {
      std::vector<crypto::Hash256> parents;
      for (size_t i = 0; i < level.size(); i += 2) {
        parents.push_back(crypto::Sha256::HashNodes(
            level[i], level[std::min(i + 1, level.size() - 1)]));
      }
      level = std::move(parents);
    }
    return level[0];
  };
  Rng rng(64);
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 40; ++n) sizes.push_back(n);
  sizes.push_back(2000);
  for (size_t n : sizes) {
    std::vector<crypto::Hash256> leaves(n);
    for (auto& leaf : leaves) {
      for (auto& byte : leaf) byte = static_cast<uint8_t>(rng.NextU64());
    }
    EXPECT_EQ(crypto::ComputeMerkleRoot(leaves), reference_root(leaves))
        << n << " leaves";
  }
}

TEST(MerklePathTest, EmptyAndSingleton) {
  EXPECT_EQ(crypto::ComputeMerkleRoot({}), crypto::ZeroHash());
  auto leaf = crypto::Sha256::Hash(ToBytes("only"));
  EXPECT_EQ(crypto::ComputeMerkleRoot({leaf}), leaf);
}

TEST(ClauseTest, SplitSkipsEmptyClausesAndKeepsValuesVerbatim) {
  const std::vector<clause::Clause> cs =
      clause::Split(",,crash:0:6,,amount:1:100,uniform,zipf:,");
  ASSERT_EQ(cs.size(), 4u);
  EXPECT_EQ(cs[0].key, "crash");
  EXPECT_EQ(cs[0].value, "0:6");  // Only the first ':' cuts.
  EXPECT_EQ(cs[1].text, "amount:1:100");
  EXPECT_EQ(cs[2].key, "uniform");
  EXPECT_FALSE(cs[2].has_value);
  EXPECT_TRUE(cs[3].has_value);
  EXPECT_TRUE(cs[3].value.empty());

  // Nested comma-specs ride through a ';'-separated grammar untouched.
  const std::vector<clause::Clause> soak =
      clause::Split("rounds:4;faults:loss:0.1,dup:0.2;", ';');
  ASSERT_EQ(soak.size(), 2u);
  EXPECT_EQ(soak[1].key, "faults");
  EXPECT_EQ(soak[1].value, "loss:0.1,dup:0.2");

  const clause::Clause kn = clause::Cut("4/6", '/');
  EXPECT_EQ(kn.key, "4");
  EXPECT_EQ(kn.value, "6");
  EXPECT_TRUE(clause::Split("").empty());
  EXPECT_TRUE(clause::Split(",,,").empty());
}

TEST(ClauseTest, UnsignedParserIsStrict) {
  uint64_t v = 0;
  EXPECT_TRUE(clause::ParseU64("0", &v));
  EXPECT_TRUE(clause::ParseU64("007", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(clause::ParseU64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  v = 42;
  for (const char* bad : {"", "-1", "-0", "+1", " 1", "1 ", "1x", "0x10",
                          "18446744073709551616", "1e3", "nan"}) {
    EXPECT_FALSE(clause::ParseU64(bad, &v)) << bad;
    EXPECT_EQ(v, 42u) << bad;  // Untouched on failure.
  }
}

TEST(ClauseTest, IntParserEnforcesItsRange) {
  int v = 0;
  EXPECT_TRUE(clause::ParseInt("-3", &v));
  EXPECT_EQ(v, -3);
  EXPECT_TRUE(clause::ParseInt("8", &v, 0, 8));
  EXPECT_EQ(v, 8);
  v = 5;
  for (const char* bad : {"9", "-1", "", "+1", " 2", "2 ", "2.0"}) {
    EXPECT_FALSE(clause::ParseInt(bad, &v, 0, 8)) << bad;
    EXPECT_EQ(v, 5) << bad;
  }
  // Past int's range, never truncated into it.
  EXPECT_FALSE(clause::ParseInt("4294967297", &v));
  EXPECT_FALSE(clause::ParseInt("18446744073709551616", &v));
  EXPECT_EQ(v, 5);
}

TEST(ClauseTest, RealParserAcceptsFiniteDecimalsOnly) {
  // Every decimal form strtod reads as a finite value parses to the same
  // bits.
  for (const char* good : {"0.25", "1e3", "1E-2", "-0.5", ".5", "5.", "0",
                           "-0", "25.5", "0.30000000000000004", "1e-310",
                           "1.7976931348623157e308"}) {
    double v = 0;
    ASSERT_TRUE(clause::ParseReal(good, &v)) << good;
    const double ref = std::strtod(good, nullptr);
    EXPECT_EQ(std::memcmp(&v, &ref, sizeof(v)), 0) << good;
  }
  double v = 7;
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "-inf", "infinity",
                          "1e999", "1e-400", "", " 1", "1 ", "+1", "0.5x",
                          "1e", "0x10"}) {
    EXPECT_FALSE(clause::ParseReal(bad, &v)) << bad;
    EXPECT_EQ(v, 7.0) << bad;
  }
}

TEST(ClauseTest, NameTableRoundTrips) {
  enum class Color { kRed, kGreen, kBlue };
  static constexpr clause::Named<Color> kColors[] = {
      {Color::kRed, "red"}, {Color::kGreen, "green"}, {Color::kBlue, "blue"}};
  for (Color c : {Color::kRed, Color::kGreen, Color::kBlue}) {
    Color back = Color::kRed;
    ASSERT_TRUE(clause::FromName(kColors, clause::NameOf(kColors, c), &back));
    EXPECT_EQ(back, c);
  }
  Color untouched = Color::kBlue;
  EXPECT_FALSE(clause::FromName(kColors, "Red", &untouched));
  EXPECT_FALSE(clause::FromName(kColors, "", &untouched));
  EXPECT_EQ(untouched, Color::kBlue);
  // A value missing from the table falls back to the first row's name.
  EXPECT_STREQ(clause::NameOf(kColors, static_cast<Color>(9)), "red");

  EXPECT_STREQ(core::AdvStrategyName(core::AdvStrategy::kStaleReply),
               "stale-reply");
  EXPECT_STREQ(net::DisseminationModeName(net::DisseminationMode::kTree),
               "tree");
}

TEST(ClauseTest, BadNamesTheGrammarAndTheClause) {
  Status st = clause::Bad("fault", "loss:2");
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad fault clause 'loss:2'");
  st = clause::Bad("workload", "hot:2", "expected a fraction in [0,1]");
  EXPECT_EQ(st.message(),
            "bad workload clause 'hot:2': expected a fraction in [0,1]");
  EXPECT_EQ(clause::FormatG(0.25), "0.25");
  EXPECT_EQ(clause::FormatG(1e-7), "1e-07");
}

// Canonical spec strings are exported in scenario rows and bench envelopes
// and printed as soak --replay= commands, so their bytes are pinned here.
TEST(ClauseTest, CanonicalSpecStringsKeepTheirBytes) {
  auto adversary = core::AdversarySpec::Parse(
      "stateless:tamper-exec,alpha:0.2,storage:stale-reply,beta:0.4");
  ASSERT_TRUE(adversary.ok());
  EXPECT_EQ(adversary->ToString(),
            "stateless:tamper-exec,alpha:0.2,storage:stale-reply,beta:0.4,"
            "seed:2779");

  const std::pair<const char*, const char*> workloads[] = {
      {"contract:8,accounts:1000,contracts:4,skew:1.2,amount:5:5",
       "contract:8,accounts:1000,skew:1.2,amount:5:5,contracts:4,seed:1"},
      {"flashcrowd:64,accounts:100000,hot:0.9,rotate:2000,arrival:bursty,"
       "period:20,duty:0.25,peak:4,seed:11",
       "flashcrowd:64,accounts:100000,hot:0.9,rotate:2000,arrival:bursty,"
       "period:20,duty:0.25,peak:4,seed:11"},
      {"uniform,arrival:diurnal,period:30,peak:2.5",
       "uniform,accounts:10000,arrival:diurnal,period:30,peak:2.5,seed:1"},
      {"uniform,accounts:100,arrival:flash,at:10,dur:5,peak:8,seed:1",
       "uniform,accounts:100,arrival:flash,at:10,dur:5,peak:8,seed:1"},
  };
  for (const auto& [text, canonical] : workloads) {
    auto spec = workload::Spec::Parse(text);
    ASSERT_TRUE(spec.ok()) << text;
    EXPECT_EQ(spec->ToString(), canonical);
  }

  auto tree = net::DisseminationSpec::Parse("tree,chunks:3/5,strikes:1");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->ToString(), "tree,chunks:3/5,strikes:1");

  const std::string soak =
      "rounds:40;epoch:8;seed:9;nodes:30;storages:3;oc:5;shardbits:2;"
      "tps:25.5;gap:45;workload:accounts:1000,cross:0.2;faults:loss:0.01;"
      "adversary:stateless:equivocate;inject:7";
  auto parsed = workload::SoakSpec::Parse(soak);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->ToString(), soak);
}


// Random insert, overwrite and erase against std::unordered_map. The small
// key pools keep the table at 8-32 slots, where probe chains wrap past the
// end of the slot array and backward-shift erase moves entries across the
// wrap; the large pool grows the table through many doublings. Every pool
// holds key 0 and key ~0 (the empty-slot marker, stored out of line), and
// every phase ends by erasing down to empty and reusing the table.
TEST(U64MapTest, MatchesUnorderedMapUnderChurn) {
  Rng rng(1234);
  for (size_t pool_size : {2, 5, 9, 20, 3000}) {
    std::vector<uint64_t> pool{0, ~uint64_t{0}};
    while (pool.size() < pool_size) pool.push_back(rng.NextU64());
    U64Map<uint64_t> map;
    std::unordered_map<uint64_t, uint64_t> reference;
    auto agree = [&] {
      ASSERT_EQ(map.size(), reference.size());
      for (uint64_t key : pool) {
        const uint64_t* found = map.Find(key);
        auto it = reference.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end()) << key;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second) << key;
        }
      }
      size_t visited = 0;
      map.ForEach([&](uint64_t key, uint64_t value) {
        ++visited;
        auto it = reference.find(key);
        ASSERT_NE(it, reference.end()) << key;
        ASSERT_EQ(value, it->second) << key;
      });
      ASSERT_EQ(visited, reference.size());
    };

    const bool small = pool_size < 100;
    for (int phase = 0; phase < 3; ++phase) {
      // Phase 0 mostly inserts (growth), phase 1 churns, phase 2 mostly
      // erases.
      const double insert_share = phase == 0 ? 0.8 : phase == 1 ? 0.5 : 0.2;
      const size_t ops = 4 * pool_size + 400;
      for (size_t op = 0; op < ops; ++op) {
        const uint64_t key = pool[rng.NextBelow(pool.size())];
        const double r = rng.NextDouble();
        if (r < insert_share / 2) {
          const uint64_t value = rng.NextU64();
          map[key] = value;
          reference[key] = value;
        } else if (r < insert_share) {
          // Value-initialising increment, as the nonce trackers use it.
          const uint64_t got = map[key]++;
          ASSERT_EQ(got, reference[key]++) << key;
        } else {
          ASSERT_EQ(map.Erase(key), reference.erase(key) == 1) << key;
        }
        if (small || op % 256 == 0) agree();
      }
      agree();
      for (uint64_t key : pool) {
        ASSERT_EQ(map.Erase(key), reference.erase(key) == 1) << key;
      }
      agree();
      EXPECT_EQ(map.size(), 0u);
      EXPECT_FALSE(map.Erase(pool.back()));
    }
  }
}


// The digest-key set behind the tx pools' admission and the per-round
// discarded/failed filters. The all-zero digest is the empty-slot marker
// (stored out of line), and ids that share their first eight bytes share
// their hashed bits, so only the full 32-byte compare tells them apart.
TEST(DigestSetTest, ZeroDigestAndSharedPrefixesStayDistinct) {
  using Digest = DigestKey::Type;
  FlatSet<DigestKey> set;
  const Digest zero{};
  EXPECT_FALSE(set.Contains(zero));
  EXPECT_TRUE(set.Insert(zero));
  EXPECT_FALSE(set.Insert(zero));
  EXPECT_TRUE(set.Contains(zero));

  std::vector<Digest> ids;
  for (int i = 0; i < 500; ++i) {
    Digest id{};
    id[0] = 0x5a;                         // First eight bytes shared by all.
    id[8 + i % 24] = static_cast<uint8_t>(1 + i / 24);
    ids.push_back(id);
  }
  for (size_t i = 0; i < ids.size(); i += 2) EXPECT_TRUE(set.Insert(ids[i]));
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(set.Contains(ids[i]), i % 2 == 0) << i;
  }
  EXPECT_EQ(set.size(), ids.size() / 2 + 1);
  for (size_t i = 0; i < ids.size(); i += 4) EXPECT_TRUE(set.Erase(ids[i]));
  EXPECT_TRUE(set.Erase(zero));
  EXPECT_FALSE(set.Contains(zero));
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(set.Contains(ids[i]), i % 4 == 2) << i;
  }
}

// Against std::sort + std::unique: 64-bit and account-sized random ids,
// duplicate-heavy lists, ids that differ in one digit only (every other
// pass skipped), and the trivial lists.
TEST(RadixSortTest, MatchesSortUnique) {
  Rng rng(77);
  auto check = [](std::vector<uint64_t> keys) {
    std::vector<uint64_t> expected = keys;
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    RadixSortUnique(&keys);
    EXPECT_EQ(keys, expected);
  };
  check({});
  check({42});
  check({7, 7, 7});
  for (size_t n : {2, 100, 8000}) {
    std::vector<uint64_t> wide, accounts, repeats, one_digit;
    for (size_t i = 0; i < n; ++i) {
      wide.push_back(rng.NextU64());
      accounts.push_back(rng.NextBelow(1'000'001));
      repeats.push_back(rng.NextBelow(16) << 40 | 3);
      one_digit.push_back(rng.NextBelow(256) << 16 | 0xab00cd);
    }
    check(wide);
    check(accounts);
    check(repeats);
    check(one_digit);
  }
}

}  // namespace
}  // namespace porygon
