// Unit and property tests for the persistence substrate: codec, WAL,
// snapshot, record store, spaces — including crash-consistency sweeps.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>

#include "common/crc32.h"
#include "common/strings.h"
#include "store/codec.h"
#include "store/fs.h"
#include "store/record_store.h"
#include "store/snapshot.h"
#include "store/spaces.h"
#include "store/wal.h"
#include "tests/test_util.h"

namespace biopera {
namespace {

// --- Codec -----------------------------------------------------------------

TEST(CodecTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  std::string_view v = buf;
  uint32_t out;
  ASSERT_TRUE(GetFixed32(&v, &out));
  EXPECT_EQ(out, 0xdeadbeefu);
  EXPECT_TRUE(v.empty());
}

TEST(CodecTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789abcdefULL);
  std::string_view v = buf;
  uint64_t out;
  ASSERT_TRUE(GetFixed64(&v, &out));
  EXPECT_EQ(out, 0x0123456789abcdefULL);
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, RoundTrips) {
  std::string buf;
  PutVarint64(&buf, GetParam());
  std::string_view v = buf;
  uint64_t out;
  ASSERT_TRUE(GetVarint64(&v, &out));
  EXPECT_EQ(out, GetParam());
  EXPECT_TRUE(v.empty());
}

INSTANTIATE_TEST_SUITE_P(Values, VarintRoundTrip,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull,
                                           16383ull, 16384ull, 1ull << 32,
                                           UINT64_MAX));

TEST(CodecTest, TruncatedVarintFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  std::string_view v = buf;
  uint64_t out;
  EXPECT_FALSE(GetVarint64(&v, &out));
}

TEST(CodecTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'z'));
  std::string_view v = buf;
  std::string_view a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&v, &a));
  ASSERT_TRUE(GetLengthPrefixed(&v, &b));
  ASSERT_TRUE(GetLengthPrefixed(&v, &c));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c.size(), 1000u);
  EXPECT_TRUE(v.empty());
}

TEST(CodecTest, LengthPrefixedShortBufferFails) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  buf.resize(buf.size() - 2);
  std::string_view v = buf;
  std::string_view s;
  EXPECT_FALSE(GetLengthPrefixed(&v, &s));
}

// --- WAL -------------------------------------------------------------------

TEST(WalTest, WriteThenReadBack) {
  testing::TempDir dir;
  std::string path = dir.path() + "/wal";
  {
    ASSERT_OK_AND_ASSIGN(auto writer, WalWriter::Open(path));
    ASSERT_OK(writer->Append("one"));
    ASSERT_OK(writer->Append(""));
    ASSERT_OK(writer->Append(std::string(10000, 'q')));
    EXPECT_EQ(writer->records_written(), 3u);
  }
  ASSERT_OK_AND_ASSIGN(WalReadResult result, ReadWal(path));
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.records[0], "one");
  EXPECT_EQ(result.records[1], "");
  EXPECT_EQ(result.records[2].size(), 10000u);
  EXPECT_FALSE(result.truncated_tail);
}

TEST(WalTest, MissingFileIsEmptyLog) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(WalReadResult result, ReadWal(dir.path() + "/nope"));
  EXPECT_TRUE(result.records.empty());
  EXPECT_FALSE(result.truncated_tail);
}

TEST(WalTest, AppendAcrossReopens) {
  testing::TempDir dir;
  std::string path = dir.path() + "/wal";
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(auto writer, WalWriter::Open(path));
    ASSERT_OK(writer->Append("rec" + std::to_string(i)));
  }
  ASSERT_OK_AND_ASSIGN(WalReadResult result, ReadWal(path));
  EXPECT_EQ(result.records.size(), 3u);
}

/// Property: truncating the WAL at ANY byte offset yields a valid prefix
/// of the records, never an error and never a corrupt record.
TEST(WalTest, TornTailAtEveryOffsetIsAPrefix) {
  testing::TempDir dir;
  std::string path = dir.path() + "/wal";
  std::vector<std::string> records;
  {
    ASSERT_OK_AND_ASSIGN(auto writer, WalWriter::Open(path));
    for (int i = 0; i < 8; ++i) {
      records.push_back("record-" + std::to_string(i) +
                        std::string(static_cast<size_t>(i * 13), 'p'));
      ASSERT_OK(writer->Append(records.back()));
    }
  }
  std::string full;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) full.append(buf, n);
    std::fclose(f);
  }
  for (size_t cut = 0; cut <= full.size(); cut += 3) {
    std::string truncated_path = dir.path() + "/wal_cut";
    std::FILE* f = std::fopen(truncated_path.c_str(), "wb");
    std::fwrite(full.data(), 1, cut, f);
    std::fclose(f);
    ASSERT_OK_AND_ASSIGN(WalReadResult result, ReadWal(truncated_path));
    ASSERT_LE(result.records.size(), records.size());
    for (size_t i = 0; i < result.records.size(); ++i) {
      EXPECT_EQ(result.records[i], records[i]) << "cut=" << cut;
    }
    // A cut exactly on a record boundary is indistinguishable from a
    // clean shutdown; mid-record cuts must be flagged.
    if (result.truncated_tail) {
      EXPECT_LT(result.records.size(), records.size());
    }
  }
}

TEST(WalTest, CorruptedPayloadStopsRead) {
  testing::TempDir dir;
  std::string path = dir.path() + "/wal";
  {
    ASSERT_OK_AND_ASSIGN(auto writer, WalWriter::Open(path));
    ASSERT_OK(writer->Append("first"));
    ASSERT_OK(writer->Append("second"));
  }
  // Flip a byte inside the second record's payload.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    std::fseek(f, -2, SEEK_END);
    char c = 'X';
    std::fwrite(&c, 1, 1, f);
    std::fclose(f);
  }
  ASSERT_OK_AND_ASSIGN(WalReadResult result, ReadWal(path));
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0], "first");
  EXPECT_TRUE(result.truncated_tail);
}

// --- Snapshot -----------------------------------------------------------------

TEST(SnapshotTest, RoundTrip) {
  testing::TempDir dir;
  std::string path = dir.path() + "/snap";
  ASSERT_OK(WriteSnapshot(path, "payload bytes"));
  ASSERT_OK_AND_ASSIGN(std::string payload, ReadSnapshot(path));
  EXPECT_EQ(payload, "payload bytes");
}

TEST(SnapshotTest, MissingIsNotFound) {
  testing::TempDir dir;
  Result<std::string> r = ReadSnapshot(dir.path() + "/none");
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(SnapshotTest, OverwriteReplacesAtomically) {
  testing::TempDir dir;
  std::string path = dir.path() + "/snap";
  ASSERT_OK(WriteSnapshot(path, "v1"));
  ASSERT_OK(WriteSnapshot(path, "v2"));
  ASSERT_OK_AND_ASSIGN(std::string payload, ReadSnapshot(path));
  EXPECT_EQ(payload, "v2");
  // No leftover temp file.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(SnapshotTest, CorruptionDetected) {
  testing::TempDir dir;
  std::string path = dir.path() + "/snap";
  ASSERT_OK(WriteSnapshot(path, "important data"));
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    std::fseek(f, -3, SEEK_END);
    char c = '!';
    std::fwrite(&c, 1, 1, f);
    std::fclose(f);
  }
  Result<std::string> r = ReadSnapshot(path);
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(SnapshotTest, BadMagicDetected) {
  testing::TempDir dir;
  std::string path = dir.path() + "/snap";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("garbage!", 1, 8, f);
  std::fclose(f);
  EXPECT_TRUE(ReadSnapshot(path).status().IsCorruption());
}

// --- WriteBatch ------------------------------------------------------------------

TEST(WriteBatchTest, OpsRoundTrip) {
  WriteBatch batch;
  batch.Put("t1", "k1", "v1");
  batch.Delete("t2", "k2");
  batch.Put("t1", "k3", "");
  EXPECT_EQ(batch.num_ops(), 3u);
  ASSERT_OK_AND_ASSIGN(WriteBatch parsed,
                       WriteBatch::FromPayload(batch.payload()));
  ASSERT_OK_AND_ASSIGN(auto ops, parsed.Ops());
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_TRUE(ops[0].is_put);
  EXPECT_EQ(ops[0].table, "t1");
  EXPECT_EQ(ops[0].key, "k1");
  EXPECT_EQ(ops[0].value, "v1");
  EXPECT_FALSE(ops[1].is_put);
  EXPECT_EQ(ops[1].key, "k2");
}

TEST(WriteBatchTest, CorruptPayloadRejected) {
  EXPECT_FALSE(WriteBatch::FromPayload("\x07garbage").ok());
}

// --- RecordStore ------------------------------------------------------------------

TEST(RecordStoreTest, PutGetDelete) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  ASSERT_OK(store->Put("table", "key", "value"));
  ASSERT_OK_AND_ASSIGN(std::string v, store->Get("table", "key"));
  EXPECT_EQ(v, "value");
  EXPECT_TRUE(store->Contains("table", "key"));
  ASSERT_OK(store->Delete("table", "key"));
  EXPECT_FALSE(store->Contains("table", "key"));
  EXPECT_TRUE(store->Get("table", "key").status().IsNotFound());
}

TEST(RecordStoreTest, GetFromMissingTable) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  EXPECT_TRUE(store->Get("none", "k").status().IsNotFound());
  EXPECT_EQ(store->TableSize("none"), 0u);
}

TEST(RecordStoreTest, ScanWithPrefix) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  ASSERT_OK(store->Put("t", "a/1", "1"));
  ASSERT_OK(store->Put("t", "a/2", "2"));
  ASSERT_OK(store->Put("t", "b/1", "3"));
  auto rows = store->Scan("t", "a/");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "a/1");
  EXPECT_EQ(rows[1].first, "a/2");
  EXPECT_EQ(store->Scan("t").size(), 3u);
}

TEST(RecordStoreTest, ViewSurvivesWritesToOtherRows) {
  // A view points into the image. Writes to other rows (a rewrite, a
  // delete, enough inserts to rehash the table), to another table, and a
  // checkpoint leave it as it was; restart relies on this while it
  // recovers instance after instance from one view.
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  const std::string kept = "kept value, longer than any short string";
  ASSERT_OK(store->Put("t", "a/1", "neighbour value, also long enough"));
  ASSERT_OK(store->Put("t", "b/1", kept));
  const std::vector<RecordStore::RowView> view = store->View("t", "b/");
  ASSERT_EQ(view.size(), 1u);
  const char* key_data = view[0].key.data();
  const char* value_data = view[0].value.data();

  ASSERT_OK(store->Put("t", "a/1", std::string(1000, 'x')));
  ASSERT_OK(store->Delete("t", "a/1"));
  WriteBatch batch;
  for (int i = 0; i < 40000; ++i) {
    batch.Put("t", StrFormat("c/%05d", i), "v");
  }
  ASSERT_OK(store->Apply(batch));
  ASSERT_OK(store->Put("other", "b/1", "another table"));
  ASSERT_OK(store->Checkpoint());

  EXPECT_EQ(view[0].key.data(), key_data);
  EXPECT_EQ(view[0].value.data(), value_data);
  EXPECT_EQ(view[0].key, "b/1");
  EXPECT_EQ(view[0].value, kept);
  // Scan is the same ordered view, copied.
  std::vector<std::pair<std::string, std::string>> copied;
  for (const RecordStore::RowView& row : store->View("t")) {
    copied.emplace_back(row.key, row.value);
  }
  EXPECT_EQ(store->Scan("t"), copied);
}

TEST(RecordStoreTest, SurvivesReopen) {
  testing::TempDir dir;
  {
    ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
    ASSERT_OK(store->Put("t", "k1", "v1"));
    ASSERT_OK(store->Put("t", "k2", "v2"));
    ASSERT_OK(store->Delete("t", "k1"));
  }
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  EXPECT_FALSE(store->Contains("t", "k1"));
  ASSERT_OK_AND_ASSIGN(std::string v, store->Get("t", "k2"));
  EXPECT_EQ(v, "v2");
}

TEST(RecordStoreTest, CheckpointTruncatesWalAndPreservesData) {
  testing::TempDir dir;
  {
    ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
    for (int i = 0; i < 100; ++i) {
      ASSERT_OK(store->Put("t", "k" + std::to_string(i), "v"));
    }
    uint64_t wal_before = store->WalBytes();
    EXPECT_GT(wal_before, 0u);
    ASSERT_OK(store->Checkpoint());
    EXPECT_EQ(store->WalBytes(), 0u);
    // Writes after the checkpoint land in the fresh WAL.
    ASSERT_OK(store->Put("t", "post", "checkpoint"));
    EXPECT_GT(store->WalBytes(), 0u);
  }
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  EXPECT_EQ(store->TableSize("t"), 101u);
  ASSERT_OK_AND_ASSIGN(std::string v, store->Get("t", "post"));
  EXPECT_EQ(v, "checkpoint");
}

TEST(RecordStoreTest, BatchIsAtomicAcrossCrash) {
  testing::TempDir dir;
  {
    ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
    WriteBatch batch;
    batch.Put("t", "a", "1");
    batch.Put("t", "b", "2");
    batch.Delete("t", "a");
    ASSERT_OK(store->Apply(batch));
  }  // "crash" = drop the store without checkpointing
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  EXPECT_FALSE(store->Contains("t", "a"));
  EXPECT_TRUE(store->Contains("t", "b"));
}

/// Property: truncate the WAL at every offset; reopening must always
/// succeed and yield a state equal to applying a prefix of the commits.
TEST(RecordStoreTest, CrashConsistentAtEveryWalTruncation) {
  testing::TempDir dir;
  const int kCommits = 12;
  {
    ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
    for (int i = 0; i < kCommits; ++i) {
      WriteBatch batch;
      batch.Put("t", "counter", std::to_string(i));
      batch.Put("t", "k" + std::to_string(i), "v");
      ASSERT_OK(store->Apply(batch));
    }
  }
  std::string wal_path = dir.path() + "/wal.log";
  std::string full;
  {
    std::FILE* f = std::fopen(wal_path.c_str(), "rb");
    char buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) full.append(buf, n);
    std::fclose(f);
  }
  for (size_t cut = 0; cut <= full.size(); cut += 7) {
    testing::TempDir crash_dir;
    std::FILE* f =
        std::fopen((crash_dir.path() + "/wal.log").c_str(), "wb");
    std::fwrite(full.data(), 1, cut, f);
    std::fclose(f);
    ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(crash_dir.path()));
    // The state must be a consistent prefix: if commit i is visible via
    // "counter", then every k0..ki exists.
    Result<std::string> counter = store->Get("t", "counter");
    if (counter.ok()) {
      int i = std::stoi(*counter);
      for (int k = 0; k <= i; ++k) {
        EXPECT_TRUE(store->Contains("t", "k" + std::to_string(k)))
            << "cut=" << cut << " i=" << i << " k=" << k;
      }
    }
  }
}

TEST(RecordStoreTest, InjectedWriteFailure) {
  testing::TempDir dir;
  FaultFs fs(Fs::Default());
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path(), &fs));
  // One committed record first: Checkpoint() with nothing dirty returns
  // OK before it touches the disk.
  ASSERT_OK(store->Put("t", "k0", "v0"));
  fs.SetDiskFull(true);
  EXPECT_TRUE(store->Put("t", "k", "v").IsIOError());
  EXPECT_TRUE(store->Checkpoint().IsIOError());
  fs.SetDiskFull(false);
  ASSERT_OK(store->Put("t", "k", "v"));
}

TEST(RecordStoreTest, EmptyBatchIsNoop) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  WriteBatch batch;
  ASSERT_OK(store->Apply(batch));
  EXPECT_EQ(store->CommitCount(), 0u);
}

// --- Spaces ------------------------------------------------------------------------

TEST(SpacesTest, TemplateSpace) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  Spaces spaces(store.get());
  ASSERT_OK(spaces.PutTemplate("proc_a", "PROCESS a {}"));
  ASSERT_OK(spaces.PutTemplate("proc_b", "PROCESS b {}"));
  ASSERT_OK_AND_ASSIGN(std::string text, spaces.GetTemplate("proc_a"));
  EXPECT_EQ(text, "PROCESS a {}");
  EXPECT_EQ(spaces.ListTemplates(),
            (std::vector<std::string>{"proc_a", "proc_b"}));
}

TEST(SpacesTest, InstanceSpaceScansAndDeletes) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  Spaces spaces(store.get());
  // Ids whose rows sort next to each other: '-' < '/' < '0', so the rows
  // of "a/" lie between those of "a-b/" and "a0/", and "job-1/" sorts
  // right before "job-10/". A row leaking into a neighbouring group, or a
  // group split in two, fails the comparison below.
  ASSERT_OK(spaces.PutInstanceRecord("job-10", "header", "j10"));
  ASSERT_OK(spaces.PutInstanceRecord("a0", "header", "a0"));
  ASSERT_OK(spaces.PutInstanceRecord("a", "wb", "a-wb"));
  ASSERT_OK(spaces.PutInstanceRecord("job-1", "task/x", "j1-x"));
  ASSERT_OK(spaces.PutInstanceRecord("a-b", "header", "ab"));
  ASSERT_OK(spaces.PutInstanceRecord("a", "header", "a-h"));
  ASSERT_OK(spaces.PutInstanceRecord("job-1", "header", "j1-h"));
  ASSERT_OK(spaces.PutInstanceRecord("a", "task/p.q", "a-t"));
  ASSERT_OK(spaces.PutInstanceRecord("job-10", "task/x", "j10-x"));

  using Rows = std::vector<std::pair<std::string, std::string>>;
  auto groups = [&spaces] {
    std::vector<std::pair<std::string, Rows>> out;
    const Spaces::InstanceScan scan = spaces.ScanInstances();
    for (const Spaces::InstanceRows& group : scan.instances) {
      Rows& rows = out.emplace_back(group.id, Rows()).second;
      for (const RecordStore::RowView& row : group.rows) {
        rows.emplace_back(row.key, row.value);
      }
    }
    return out;
  };
  // Ids in key order; within a group, keys in order with "<id>/" stripped.
  EXPECT_EQ(groups(), (std::vector<std::pair<std::string, Rows>>{
                          {"a-b", {{"header", "ab"}}},
                          {"a",
                           {{"header", "a-h"},
                            {"task/p.q", "a-t"},
                            {"wb", "a-wb"}}},
                          {"a0", {{"header", "a0"}}},
                          {"job-1", {{"header", "j1-h"}, {"task/x", "j1-x"}}},
                          {"job-10",
                           {{"header", "j10"}, {"task/x", "j10-x"}}},
                      }));

  // DeleteInstance removes the whole group and nothing of its neighbours.
  ASSERT_OK(spaces.DeleteInstance("a"));
  ASSERT_OK(spaces.DeleteInstance("job-1"));
  EXPECT_EQ(groups(), (std::vector<std::pair<std::string, Rows>>{
                          {"a-b", {{"header", "ab"}}},
                          {"a0", {{"header", "a0"}}},
                          {"job-10",
                           {{"header", "j10"}, {"task/x", "j10-x"}}},
                      }));
  EXPECT_FALSE(spaces.GetInstanceRecord("a", "header").ok());
  EXPECT_FALSE(spaces.GetInstanceRecord("job-1", "task/x").ok());
}

TEST(SpacesTest, HistoryIsOrderedAndPerInstance) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  Spaces spaces(store.get());
  ASSERT_OK(spaces.AppendHistory("a", "first"));
  ASSERT_OK(spaces.AppendHistory("b", "other"));
  ASSERT_OK(spaces.AppendHistory("a", "second"));
  EXPECT_EQ(spaces.History("a"),
            (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(spaces.History("b"), (std::vector<std::string>{"other"}));
}

TEST(SpacesTest, HistorySequenceSurvivesReopen) {
  testing::TempDir dir;
  {
    ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
    Spaces spaces(store.get());
    ASSERT_OK(spaces.AppendHistory("a", "one"));
  }
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  Spaces spaces(store.get());
  ASSERT_OK(spaces.AppendHistory("a", "two"));
  EXPECT_EQ(spaces.History("a"), (std::vector<std::string>{"one", "two"}));
}

// --- Binary Value codec ----------------------------------------------------

ocr::Value SampleValue() {
  ocr::Value::Map m;
  m["null"] = ocr::Value();
  m["yes"] = ocr::Value(true);
  m["no"] = ocr::Value(false);
  m["small"] = ocr::Value(int64_t{-7});
  m["big"] = ocr::Value(int64_t{1} << 62);
  m["min"] = ocr::Value(std::numeric_limits<int64_t>::min());
  m["tenth"] = ocr::Value(0.1);  // not representable in decimal text
  m["huge"] = ocr::Value(-1.5e300);
  m["text"] = ocr::Value(std::string("embedded \x01 and \0 bytes", 22));
  ocr::Value::List l;
  l.push_back(ocr::Value(m));
  l.push_back(ocr::Value("tail"));
  return ocr::Value(std::move(l));
}

TEST(BinaryValueCodecTest, RoundTripsEveryType) {
  ocr::Value original = SampleValue();
  std::string buf;
  EncodeValue(original, &buf);
  std::string_view v = buf;
  ocr::Value decoded;
  ASSERT_TRUE(DecodeValue(&v, &decoded));
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(decoded, original);
}

TEST(BinaryValueCodecTest, DoublesRoundTripBitExactly) {
  // The text form loses precision on these; the binary form must not.
  for (double d : {0.1, 1.0 / 3.0, 5e-324, 1.7976931348623157e308}) {
    std::string buf;
    EncodeValue(ocr::Value(d), &buf);
    std::string_view v = buf;
    ocr::Value decoded;
    ASSERT_TRUE(DecodeValue(&v, &decoded));
    EXPECT_EQ(decoded.AsDouble(), d);
  }
}

TEST(BinaryValueCodecTest, EveryTruncationFailsCleanly) {
  // The encoding is self-delimiting, so every strict prefix must be
  // rejected — and must never crash or hang.
  std::string buf;
  EncodeValue(SampleValue(), &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string_view v = std::string_view(buf).substr(0, cut);
    ocr::Value decoded;
    EXPECT_FALSE(DecodeValue(&v, &decoded)) << "prefix length " << cut;
  }
}

TEST(BinaryValueCodecTest, HostileBytesFailCleanly) {
  // Bad tag.
  std::string bad_tag = "\x7f";
  std::string_view v = bad_tag;
  ocr::Value out;
  EXPECT_FALSE(DecodeValue(&v, &out));
  // A list claiming 2^60 elements must fail when the input runs out, not
  // allocate up front.
  std::string huge_list;
  huge_list.push_back(6);  // list tag
  PutVarint64(&huge_list, uint64_t{1} << 60);
  v = huge_list;
  EXPECT_FALSE(DecodeValue(&v, &out));
  // Same for a map, and for a string whose length exceeds the buffer.
  std::string huge_map;
  huge_map.push_back(7);  // map tag
  PutVarint64(&huge_map, uint64_t{1} << 60);
  v = huge_map;
  EXPECT_FALSE(DecodeValue(&v, &out));
  std::string long_string;
  long_string.push_back(5);  // string tag
  PutVarint64(&long_string, 1000000);
  long_string += "short";
  v = long_string;
  EXPECT_FALSE(DecodeValue(&v, &out));
}

TEST(BinaryValueCodecTest, NestingDeeperThanCapIsRejected) {
  // 100 nested single-element lists around a null: decode must stop at
  // kMaxValueDepth instead of recursing to a stack overflow.
  std::string buf;
  for (int i = 0; i < 100; ++i) {
    buf.push_back(6);  // list tag
    PutVarint64(&buf, 1);
  }
  buf.push_back(0);  // innermost null
  std::string_view v = buf;
  ocr::Value out;
  EXPECT_FALSE(DecodeValue(&v, &out));
  // At the cap itself, decoding succeeds.
  std::string ok;
  for (int i = 0; i < kMaxValueDepth; ++i) {
    ok.push_back(6);
    PutVarint64(&ok, 1);
  }
  ok.push_back(0);
  v = ok;
  EXPECT_TRUE(DecodeValue(&v, &out));
}

TEST(BinaryValueCodecTest, MapKeysOutOfOrderOrRepeatedKeepLastWins) {
  // The encoder writes keys in order; bytes from elsewhere may not. They
  // decode to what inserting each pair with operator[] gives, the last of
  // equal keys winning whole (a repeated map replaces, it does not merge).
  std::string buf;
  buf.push_back(7);  // map tag
  PutVarint64(&buf, 6);
  auto put_int = [&buf](std::string_view key, int64_t v) {
    PutLengthPrefixed(&buf, key);
    EncodeValue(ocr::Value(v), &buf);
  };
  auto put_map = [&buf](std::string_view key, std::string_view inner) {
    PutLengthPrefixed(&buf, key);
    EncodeValue(ocr::Value(ocr::Value::Map{{std::string(inner),
                                            ocr::Value(1)}}),
                &buf);
  };
  put_int("m", 1);
  put_int("c", 2);
  put_map("x", "first");
  put_int("m", 3);
  put_map("x", "second");
  put_int("a", 4);
  ocr::Value::Map want;
  want["m"] = ocr::Value(1);
  want["c"] = ocr::Value(2);
  want["x"] = ocr::Value(ocr::Value::Map{{"first", ocr::Value(1)}});
  want["m"] = ocr::Value(3);
  want["x"] = ocr::Value(ocr::Value::Map{{"second", ocr::Value(1)}});
  want["a"] = ocr::Value(4);

  std::string_view v = buf;
  ocr::Value decoded;
  ASSERT_TRUE(DecodeValue(&v, &decoded));
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(decoded, ocr::Value(want));
  EXPECT_EQ(decoded.ToText(), ocr::Value(want).ToText());
}

TEST(BinaryValueCodecTest, HugeListCountWithThreeBytesLeftFailsCleanly) {
  // A count near 2^60 followed by three one-byte elements: the decoder may
  // reserve for at most three, and fails when the input runs out.
  std::string buf;
  buf.push_back(6);  // list tag
  PutVarint64(&buf, (uint64_t{1} << 60) - 3);
  buf.append(3, '\0');  // three nulls
  std::string_view v = buf;
  ocr::Value out;
  bool decoded = true;
  EXPECT_NO_THROW(decoded = DecodeValue(&v, &out));
  EXPECT_FALSE(decoded);
}

TEST(BinaryValueCodecTest, DecodingReplacesWhatTheTargetHeld) {
  // Decoding builds containers in place; whatever the target held before
  // is gone, not merged.
  ocr::Value out(ocr::Value::Map{{"stale", ocr::Value(1)}});
  for (const ocr::Value& want :
       {SampleValue(), ocr::Value(ocr::Value::Map{{"fresh", ocr::Value(2)}}),
        ocr::Value(ocr::Value::List{}), ocr::Value("text")}) {
    std::string buf;
    EncodeValue(want, &buf);
    std::string_view v = buf;
    ASSERT_TRUE(DecodeValue(&v, &out));
    EXPECT_EQ(out.ToText(), want.ToText());
  }
}

TEST(MapRecordReaderTest, ReadsFieldsInOrderAndChecksTheFraming) {
  ocr::Value::Map rec;
  rec["a"] = ocr::Value(1);
  rec["b"] = ocr::Value(ocr::Value::List{ocr::Value("x")});
  const std::string record = EncodeValueRecord(ocr::Value(rec));
  MapRecordReader reader(record);
  std::string_view key;
  ocr::Value value;
  std::vector<std::pair<std::string, std::string>> fields;
  while (reader.NextKey(&key) && reader.ReadValue(&value)) {
    fields.emplace_back(key, value.ToText());
  }
  EXPECT_OK(reader.status());
  EXPECT_EQ(fields, (std::vector<std::pair<std::string, std::string>>{
                        {"a", "1"}, {"b", R"(["x"])"}}));

  // Every framing fault is Corruption: no marker, not a map, a truncated
  // field, bytes after the map.
  for (const std::string& bad :
       {std::string("plain"), EncodeValueRecord(ocr::Value(1)),
        record.substr(0, record.size() - 1), record + "x"}) {
    MapRecordReader broken(bad);
    while (broken.NextKey(&key) && broken.ReadValue(&value)) {
    }
    EXPECT_TRUE(broken.status().IsCorruption()) << bad;
  }
}

TEST(BinaryValueCodecTest, RecordMarkerFramesBinaryAndRejectsText) {
  ocr::Value original = SampleValue();
  std::string record = EncodeValueRecord(original);
  ASSERT_FALSE(record.empty());
  EXPECT_EQ(record.front(), kBinaryValueMarker);
  ASSERT_OK_AND_ASSIGN(ocr::Value decoded, DecodeValueRecord(record));
  EXPECT_EQ(decoded, original);

  // A text record has no marker: corruption, not a second decoder.
  std::string text = ocr::Value(int64_t{42}).ToText();
  EXPECT_TRUE(DecodeValueRecord(text).status().IsCorruption());
  EXPECT_TRUE(DecodeValueRecord("").status().IsCorruption());

  // A marker followed by garbage is corruption, not a crash.
  EXPECT_FALSE(DecodeValueRecord("\x01\x7fgarbage").ok());
  // Trailing bytes after a valid value are corruption too.
  std::string padded = record + "x";
  EXPECT_FALSE(DecodeValueRecord(padded).ok());
}

// --- WriteBatch hostile payloads -------------------------------------------

TEST(WriteBatchTest, FromPayloadTruncationSweep) {
  WriteBatch batch;
  batch.Put("instance", "task/1", "running");
  batch.Delete("instance", "task/0");
  batch.Put("history", "a/000001", "note");
  const std::string payload = batch.payload();
  size_t valid_prefixes = 0;
  for (size_t cut = 0; cut <= payload.size(); ++cut) {
    Result<WriteBatch> r =
        WriteBatch::FromPayload(std::string_view(payload).substr(0, cut));
    if (r.ok()) ++valid_prefixes;
  }
  // Only the op boundaries parse: empty, after op 1, after op 2, and the
  // full payload. Every other cut must fail cleanly.
  EXPECT_EQ(valid_prefixes, 4u);
}

TEST(WriteBatchTest, FromPayloadHostileBytes) {
  // Bad op tag.
  EXPECT_FALSE(WriteBatch::FromPayload("\x09").ok());
  // Truncated varint (continuation bit set, no next byte).
  std::string trunc;
  trunc.push_back(1);     // put tag
  trunc.push_back('\x85');  // varint with continuation, then EOF
  EXPECT_FALSE(WriteBatch::FromPayload(trunc).ok());
  // Length prefix larger than the remaining buffer.
  std::string overrun;
  overrun.push_back(1);
  PutVarint64(&overrun, 1000000);
  overrun += "tbl";
  EXPECT_FALSE(WriteBatch::FromPayload(overrun).ok());
  // All-0xff fuzz-ish input.
  EXPECT_FALSE(WriteBatch::FromPayload(std::string(64, '\xff')).ok());
}

// --- Group commit ----------------------------------------------------------

size_t WalRecordCount(const std::string& dir) {
  auto read = ReadWal(dir + "/wal.log");
  return read.ok() ? read->records.size() : 0;
}

std::string SlurpFile(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[65536];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void DumpFile(const std::string& path, std::string_view data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
}

TEST(RecordStoreTest, GroupCommitCoalescesIntoOneWalRecord) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  {
    RecordStore::CommitScope group(store.get());
    ASSERT_OK(store->Put("instance", "a", "1"));
    ASSERT_OK(store->Put("instance", "b", "2"));
    ASSERT_OK(store->Delete("instance", "a"));
    // Read-your-writes inside the open group.
    EXPECT_FALSE(store->Contains("instance", "a"));
    ASSERT_OK_AND_ASSIGN(std::string v, store->Get("instance", "b"));
    EXPECT_EQ(v, "2");
    // Nothing on disk yet, but WalBytes counts the pending group.
    EXPECT_EQ(WalRecordCount(dir.path()), 0u);
    EXPECT_GT(store->WalBytes(), 0u);
  }
  // The whole group became exactly one WAL record.
  EXPECT_EQ(WalRecordCount(dir.path()), 1u);
}

TEST(RecordStoreTest, NestedScopesFlushOnceAtOutermostEnd) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  {
    RecordStore::CommitScope outer(store.get());
    ASSERT_OK(store->Put("t", "k1", "v1"));
    {
      RecordStore::CommitScope inner(store.get());
      ASSERT_OK(store->Put("t", "k2", "v2"));
    }
    // The inner scope must not flush while the outer one is open.
    EXPECT_EQ(WalRecordCount(dir.path()), 0u);
  }
  EXPECT_EQ(WalRecordCount(dir.path()), 1u);
}

TEST(RecordStoreTest, NullStoreScopeIsANoop) {
  RecordStore::CommitScope scope(nullptr);  // must not crash
}

TEST(RecordStoreTest, ExplicitFlushActsAsBarrierInsideScope) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  RecordStore::CommitScope group(store.get());
  ASSERT_OK(store->Put("t", "k", "v"));
  ASSERT_OK(store->Flush());
  // The barrier made the pending group durable even though the scope is
  // still open (this is what runs before a job dispatch).
  EXPECT_EQ(WalRecordCount(dir.path()), 1u);
  ASSERT_OK(store->Put("t", "k2", "v2"));
}

TEST(RecordStoreTest, GroupIsAtomicAtEveryWalTruncation) {
  testing::TempDir dir;
  {
    ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
    RecordStore::CommitScope group(store.get());
    ASSERT_OK(store->Put("t", "a", "1"));
    ASSERT_OK(store->Put("t", "b", "2"));
    ASSERT_OK(store->Put("t", "c", "3"));
  }
  std::string wal = SlurpFile(dir.path() + "/wal.log");
  ASSERT_FALSE(wal.empty());
  // However the tail is torn, the group is all-or-nothing: recovery sees
  // either every commit in the group or none of them.
  for (size_t cut = 0; cut <= wal.size(); ++cut) {
    testing::TempDir copy;
    DumpFile(copy.path() + "/wal.log", std::string_view(wal).substr(0, cut));
    ASSERT_OK_AND_ASSIGN(auto reopened, RecordStore::Open(copy.path()));
    size_t present = reopened->TableSize("t");
    EXPECT_TRUE(present == 0 || present == 3) << "cut=" << cut;
  }
}

// --- Incremental checkpoints -----------------------------------------------

/// A policy that never compacts and never checkpoints on its own, so a
/// test decides every segment. (A one-record store's delta is about as
/// large as its full segment, which would compact at the default ratio.)
RecordStore::CheckpointPolicy KeepEverySegment() {
  RecordStore::CheckpointPolicy policy;
  policy.wal_bytes = 0;
  policy.compact_delta_ratio = 100;
  return policy;
}

TEST(RecordStoreTest, IncrementalCheckpointWritesDeltaSegments) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  store->SetCheckpointPolicy(KeepEverySegment());
  ASSERT_OK(store->Put("alpha", "a", "1"));
  ASSERT_OK(store->Checkpoint());
  ASSERT_OK(store->Put("beta", "b", "2"));
  ASSERT_OK(store->Checkpoint());
  EXPECT_TRUE(
      std::filesystem::exists(std::string(dir.path()) + "/MANIFEST"));
  EXPECT_TRUE(std::filesystem::exists(std::string(dir.path()) +
                                      "/seg_000001.dat"));
  std::string seg2 = SlurpFile(dir.path() + "/seg_000002.dat");
  ASSERT_FALSE(seg2.empty());
  // The second segment is a delta: it carries the record put after the
  // first checkpoint, not the quiescent table.
  EXPECT_NE(seg2.find("beta"), std::string::npos);
  EXPECT_EQ(seg2.find("alpha"), std::string::npos);

  ASSERT_OK_AND_ASSIGN(auto reopened, RecordStore::Open(dir.path()));
  EXPECT_TRUE(reopened->Contains("alpha", "a"));
  EXPECT_TRUE(reopened->Contains("beta", "b"));
}

TEST(RecordStoreTest, CheckpointIsNoopWhenNothingChanged) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  ASSERT_OK(store->Put("t", "k", "v"));
  ASSERT_OK(store->Checkpoint());
  ASSERT_OK(store->Checkpoint());  // nothing dirty: no new segment
  EXPECT_FALSE(std::filesystem::exists(std::string(dir.path()) +
                                       "/seg_000002.dat"));
}

TEST(RecordStoreTest, CompactionFoldsSegmentsAndPrunesFiles) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  RecordStore::CheckpointPolicy policy;
  policy.wal_bytes = 0;
  // Each one-record delta is about as large as the one-record full
  // segment, so the second delta brings the deltas to twice the base.
  policy.compact_delta_ratio = 2;
  store->SetCheckpointPolicy(policy);
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(store->Put("t", StrFormat("k%d", i), "v"));
    ASSERT_OK(store->Checkpoint());
  }
  // The third checkpoint's delta would have reached the ratio, so it
  // compacted: one full segment remains and the older files are gone.
  EXPECT_FALSE(std::filesystem::exists(std::string(dir.path()) +
                                       "/seg_000001.dat"));
  EXPECT_FALSE(std::filesystem::exists(std::string(dir.path()) +
                                       "/seg_000002.dat"));
  EXPECT_TRUE(std::filesystem::exists(std::string(dir.path()) +
                                      "/seg_000003.dat"));
  ASSERT_OK_AND_ASSIGN(auto reopened, RecordStore::Open(dir.path()));
  EXPECT_EQ(reopened->TableSize("t"), 3u);
}

TEST(RecordStoreTest, EmptiedTableDoesNotResurrectFromOlderSegment) {
  testing::TempDir dir;
  {
    ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
    store->SetCheckpointPolicy(KeepEverySegment());
    ASSERT_OK(store->Put("t", "k", "v"));
    ASSERT_OK(store->Checkpoint());  // segment 1 holds t/k
    ASSERT_OK(store->Delete("t", "k"));
    ASSERT_OK(store->Checkpoint());  // delta must carry k's tombstone
  }
  EXPECT_TRUE(std::filesystem::exists(std::string(dir.path()) +
                                      "/seg_000002.dat"));
  ASSERT_OK_AND_ASSIGN(auto reopened, RecordStore::Open(dir.path()));
  EXPECT_FALSE(reopened->Contains("t", "k"));
}

TEST(RecordStoreTest, DeltaOfTenChangedRowsIsUnderOnePercentOfFull) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  store->SetCheckpointPolicy(KeepEverySegment());
  for (int i = 0; i < 10000; ++i) {
    ASSERT_OK(store->Put("instance", StrFormat("inst-%06d/header", i),
                         StrFormat("state=running;priority=%d", i % 7)));
  }
  ASSERT_OK(store->Checkpoint());  // the full segment
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(store->Put("instance", StrFormat("inst-%06d/header", i * 997),
                         "state=done"));
  }
  ASSERT_OK(store->Checkpoint());  // a delta of ten puts
  long long full = testing::FileSizeOf(dir.path() + "/seg_000001.dat");
  long long delta = testing::FileSizeOf(dir.path() + "/seg_000002.dat");
  ASSERT_GT(full, 0);
  ASSERT_GT(delta, 0);
  EXPECT_LT(delta * 100, full) << "delta " << delta << " B, full " << full
                               << " B";
  ASSERT_OK_AND_ASSIGN(auto reopened, RecordStore::Open(dir.path()));
  EXPECT_EQ(reopened->TableSize("instance"), 10000u);
  ASSERT_OK_AND_ASSIGN(std::string v,
                       reopened->Get("instance", "inst-001994/header"));
  EXPECT_EQ(v, "state=done");
}

TEST(RecordStoreTest, DeleteThenPutInOneIntervalKeepsThePut) {
  testing::TempDir dir;
  {
    ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
    store->SetCheckpointPolicy(KeepEverySegment());
    ASSERT_OK(store->Put("t", "k", "old"));
    ASSERT_OK(store->Checkpoint());
    ASSERT_OK(store->Delete("t", "k"));
    ASSERT_OK(store->Put("t", "k", "new"));
    ASSERT_OK(store->Delete("t", "gone"));  // never existed
    ASSERT_OK(store->Checkpoint());
  }
  ASSERT_OK_AND_ASSIGN(auto reopened, RecordStore::Open(dir.path()));
  ASSERT_OK_AND_ASSIGN(std::string v, reopened->Get("t", "k"));
  EXPECT_EQ(v, "new");
  EXPECT_EQ(reopened->TableSize("t"), 1u);
}

/// Frames `payload` as the older snapshot version 1 did (magic, version,
/// CRC, length), which is how the table-replacing layout wrote MANIFEST
/// and its segments.
std::string FrameAsVersion1(std::string_view payload) {
  std::string framed;
  PutFixed32(&framed, 0x42694f70);  // "BiOp"
  PutFixed32(&framed, 1);
  PutFixed32(&framed, Crc32c(payload));
  PutFixed64(&framed, payload.size());
  framed.append(payload);
  return framed;
}

TEST(RecordStoreTest, TableSegmentStoreIsRefused) {
  // A store in the older table-replacing layout: its segment begins with
  // a varint table count, which a kind byte would misread.
  testing::TempDir dir;
  std::string image;
  PutVarint64(&image, 1);  // one table
  PutLengthPrefixed(&image, "t");
  PutVarint64(&image, 1);  // one record
  PutLengthPrefixed(&image, "old_key");
  PutLengthPrefixed(&image, "old_value");
  std::string manifest;
  PutVarint64(&manifest, 1);
  PutLengthPrefixed(&manifest, "seg_000001.dat");
  DumpFile(dir.path() + "/seg_000001.dat", FrameAsVersion1(image));
  DumpFile(dir.path() + "/MANIFEST", FrameAsVersion1(manifest));
  std::string before = SlurpFile(dir.path() + "/MANIFEST");
  Result<std::unique_ptr<RecordStore>> opened = RecordStore::Open(dir.path());
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsFailedPrecondition())
      << opened.status().ToString();
  // Refused, not rewritten.
  EXPECT_EQ(SlurpFile(dir.path() + "/MANIFEST"), before);
}

TEST(RecordStoreTest, PreManifestStoreIsRefused) {
  // A pre-manifest store directory: a single snapshot.dat, no MANIFEST.
  // Opening it as a WAL-only store would silently drop the snapshot's
  // records, so Open refuses it.
  testing::TempDir dir;
  std::string image;
  PutVarint64(&image, 1);  // one table
  PutLengthPrefixed(&image, "t");
  PutVarint64(&image, 1);  // one record
  PutLengthPrefixed(&image, "old_key");
  PutLengthPrefixed(&image, "old_value");
  ASSERT_OK(
      WriteSnapshot(std::string(dir.path()) + "/snapshot.dat", image));
  Result<std::unique_ptr<RecordStore>> opened = RecordStore::Open(dir.path());
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsFailedPrecondition())
      << opened.status().ToString();
  EXPECT_FALSE(
      std::filesystem::exists(std::string(dir.path()) + "/MANIFEST"));
}

TEST(RecordStoreTest, WalBytesPolicyTriggersCheckpoint) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  RecordStore::CheckpointPolicy policy;
  policy.wal_bytes = 64;  // tiny: a couple of commits trip it
  store->SetCheckpointPolicy(policy);
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(store->Put("t", StrFormat("key/%d", i),
                         "a value long enough to cross the threshold"));
  }
  // The store checkpointed on its own (no engine involvement) and
  // truncated the WAL back under the limit.
  EXPECT_TRUE(
      std::filesystem::exists(std::string(dir.path()) + "/MANIFEST"));
  EXPECT_LT(store->WalBytes(), 64u);
}

TEST(SpacesTest, ProvenanceByInstanceKeepsNeighbouringIdsApart) {
  // "a-b/..." sorts before "a/..." ('-' < '/') although id "a" sorts
  // before "a-b": the one-pass split follows key order and keeps each
  // id's rows apart, exactly as the per-id prefix scan returns them.
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  Spaces spaces(store.get());
  WriteBatch batch;
  for (const char* id : {"a", "a-b", "a_b", "b"}) {
    for (const char* key : {"t1/a0001/in", "t1/a0001/out", "t2/a0001/in"}) {
      spaces.BatchPutProvenance(&batch, id, key, std::string(id) + ":" + key);
    }
  }
  spaces.BatchPutInstanceRecord(&batch, "a", "header", "h");  // other table
  ASSERT_OK(spaces.Apply(batch));
  const Spaces::InstanceScan groups = spaces.ScanProvenanceByInstance();
  std::vector<std::string> ids;
  for (const Spaces::InstanceRows& group : groups.instances) {
    ids.emplace_back(group.id);
    EXPECT_EQ(std::vector<RecordStore::RowView>(group.rows.begin(),
                                                group.rows.end()),
              spaces.ScanProvenance(group.id))
        << group.id;
    EXPECT_EQ(group.rows.size(), 3u) << group.id;
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"a-b", "a", "a_b", "b"}));
}

TEST(SpacesTest, ConfigSpace) {
  testing::TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(dir.path()));
  Spaces spaces(store.get());
  ASSERT_OK(spaces.PutConfig("node/n1", "{cpus:2}"));
  ASSERT_OK_AND_ASSIGN(std::string v, spaces.GetConfig("node/n1"));
  EXPECT_EQ(v, "{cpus:2}");
  EXPECT_EQ(spaces.ScanConfig().size(), 1u);
}

}  // namespace
}  // namespace biopera
