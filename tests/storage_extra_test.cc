// Additional storage-engine coverage: the in-memory Env, SSTable edge
// cases, Db statistics, and failure paths.

#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.h"
#include "storage/db.h"
#include "storage/env.h"
#include "storage/sstable.h"

namespace porygon::storage {
namespace {

TEST(MemEnvTest, FileLifecycle) {
  MemEnv env;
  EXPECT_FALSE(env.FileExists("a"));
  {
    auto f = env.NewWritableFile("a");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(ToBytes("hello")).ok());
    ASSERT_TRUE((*f)->Sync().ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  EXPECT_TRUE(env.FileExists("a"));
  auto data = env.ReadFile("a");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, ToBytes("hello"));

  ASSERT_TRUE(env.RenameFile("a", "b").ok());
  EXPECT_FALSE(env.FileExists("a"));
  EXPECT_TRUE(env.FileExists("b"));

  ASSERT_TRUE(env.RemoveFile("b").ok());
  EXPECT_FALSE(env.FileExists("b"));
  EXPECT_FALSE(env.ReadFile("b").ok());
}

TEST(MemEnvTest, ListDirFiltersByDirectory) {
  MemEnv env;
  (void)env.NewWritableFile("dir/x");
  (void)env.NewWritableFile("dir/y");
  (void)env.NewWritableFile("other/z");
  (void)env.NewWritableFile("toplevel");
  auto names = env.ListDir("dir");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 2u);

  auto top = env.ListDir("");
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 1u);
  EXPECT_EQ((*top)[0], "toplevel");
}

TEST(MemEnvTest, RandomAccessReadsRanges) {
  MemEnv env;
  {
    auto f = env.NewWritableFile("f");
    ASSERT_TRUE((*f)->Append(ToBytes("0123456789")).ok());
  }
  auto ra = env.NewRandomAccessFile("f");
  ASSERT_TRUE(ra.ok());
  Bytes out;
  ASSERT_TRUE((*ra)->Read(3, 4, &out).ok());
  EXPECT_EQ(out, ToBytes("3456"));
  // Reads past EOF are short, not errors.
  ASSERT_TRUE((*ra)->Read(8, 10, &out).ok());
  EXPECT_EQ(out, ToBytes("89"));
  ASSERT_TRUE((*ra)->Read(100, 4, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(*(*ra)->Size(), 10u);
}

TEST(MemEnvTest, TotalBytesTracksContent) {
  MemEnv env;
  EXPECT_EQ(env.TotalBytes(), 0u);
  auto f = env.NewWritableFile("f");
  ASSERT_TRUE((*f)->Append(ToBytes("12345")).ok());
  EXPECT_EQ(env.TotalBytes(), 5u);
}

TEST(SstableTest, ForEachEarlyStop) {
  MemEnv env;
  SstableBuilder builder(&env, "t.sst");
  for (int i = 0; i < 100; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(
        builder.Add(ToBytes(key), i, ValueType::kValue, ToBytes("v")).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SstableReader::Open(&env, "t.sst");
  ASSERT_TRUE(reader.ok());
  int visited = 0;
  ASSERT_TRUE((*reader)
                  ->ForEach([&](const SstableReader::Entry&) {
                    return ++visited < 10;
                  })
                  .ok());
  EXPECT_EQ(visited, 10);
}

TEST(SstableTest, EmptyTableRoundTrips) {
  MemEnv env;
  SstableBuilder builder(&env, "empty.sst");
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SstableReader::Open(&env, "empty.sst");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->entry_count(), 0u);
  bool tombstone;
  EXPECT_FALSE((*reader)->Get(ToBytes("any"), &tombstone).ok());
}

TEST(DbTest, StatsReflectShape) {
  MemEnv env;
  DbOptions options;
  options.l0_compaction_trigger = 100;  // No automatic compaction.
  auto db = Db::Open(&env, "db", options);
  auto s0 = (*db)->GetStats();
  EXPECT_EQ(s0.memtable_entries, 0u);
  EXPECT_EQ(s0.l0_tables, 0);
  EXPECT_FALSE(s0.has_l1);

  ASSERT_TRUE((*db)->Put(ToBytes("a"), ToBytes("1")).ok());
  ASSERT_TRUE((*db)->Put(ToBytes("b"), ToBytes("2")).ok());
  auto s1 = (*db)->GetStats();
  EXPECT_EQ(s1.memtable_entries, 2u);
  EXPECT_EQ(s1.sequence, 2u);

  ASSERT_TRUE((*db)->Flush().ok());
  auto s2 = (*db)->GetStats();
  EXPECT_EQ(s2.memtable_entries, 0u);
  EXPECT_EQ(s2.l0_tables, 1);
  EXPECT_GT(s2.table_bytes, 0u);

  ASSERT_TRUE((*db)->CompactAll().ok());
  auto s3 = (*db)->GetStats();
  EXPECT_EQ(s3.l0_tables, 0);
  EXPECT_TRUE(s3.has_l1);
}

TEST(DbTest, EmptyFlushIsNoop) {
  MemEnv env;
  auto db = Db::Open(&env, "db");
  ASSERT_TRUE((*db)->Flush().ok());
  EXPECT_EQ((*db)->GetStats().l0_tables, 0);
}

TEST(DbTest, ScanWithOpenEnds) {
  MemEnv env;
  auto db = Db::Open(&env, "db");
  for (char c = 'a'; c <= 'e'; ++c) {
    std::string key(1, c);
    ASSERT_TRUE((*db)->Put(ToBytes(key), ToBytes("v")).ok());
  }
  int count = 0;
  // Empty start = from beginning; empty end = to the last key.
  ASSERT_TRUE(
      (*db)->Scan(ByteView(), ByteView(), [&](ByteView, ByteView) { ++count; })
          .ok());
  EXPECT_EQ(count, 5);
  count = 0;
  ASSERT_TRUE((*db)
                  ->Scan(ToBytes("c"), ByteView(),
                         [&](ByteView, ByteView) { ++count; })
                  .ok());
  EXPECT_EQ(count, 3);  // c, d, e.
}

TEST(DbTest, LargeValuesSurviveFlushAndCompact) {
  MemEnv env;
  Rng rng(8);
  auto db = Db::Open(&env, "db");
  Bytes big = rng.NextBytes(200'000);  // Larger than the arena block size.
  ASSERT_TRUE((*db)->Put(ToBytes("big"), big).ok());
  ASSERT_TRUE((*db)->Flush().ok());
  ASSERT_TRUE((*db)->CompactAll().ok());
  auto v = (*db)->Get(ToBytes("big"));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, big);
}

}  // namespace
}  // namespace porygon::storage
