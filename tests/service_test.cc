// Tests for the service layer: snapshot round-trips, WAL torn-tail
// recovery, the persistent store's crash-safety contracts, the request
// wire codec's strict validation, frame I/O, and an in-process server
// exercised end to end over localhost TCP.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/framing.h"
#include "common/hash.h"
#include "relation/database.h"
#include "service/client.h"
#include "service/request_codec.h"
#include "service/server.h"
#include "service/snapshot.h"
#include "service/store.h"
#include "service/wal.h"
#include "tests/test_util.h"
#include "workload/mas_generator.h"

namespace deltarepair {
namespace {

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

std::string MakeTempDir() {
  char tmpl[] = "/tmp/drepair_service_test_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return std::string(dir);
}

void RemoveTree(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  int rc = std::system(cmd.c_str());
  (void)rc;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(static_cast<bool>(out)) << path;
}

/// A database stressing every cell shape: null, int extremes, empty and
/// non-trivial strings, an empty relation, plus deleted and revived rows.
Database MakeKitchenSinkDb() {
  Database db;
  uint32_t vals = db.AddRelation(RelationSchema(
      "Vals", {{"i", ValueType::kInt}, {"s", ValueType::kString}}));
  uint32_t empty = db.AddRelation(
      RelationSchema("Empty", {{"x", ValueType::kInt}}));
  (void)empty;
  db.Insert(vals, {Value(int64_t{0}), Value(std::string())});
  db.Insert(vals, {Value(INT64_MIN), Value("min")});
  db.Insert(vals, {Value(INT64_MAX), Value("max,with\nodd\tchars")});
  db.Insert(vals, {Value(), Value()});  // nulls in both columns
  db.Insert(vals, {Value(int64_t{-7}), Value("x")});
  // Row 1 deleted; row 4 deleted then revived (dedupe hit on re-insert).
  db.base_view().Retract(TupleId{vals, 1});
  db.base_view().Retract(TupleId{vals, 4});
  TupleId revived = db.Insert(vals, {Value(int64_t{-7}), Value("x")});
  EXPECT_EQ(revived.row, 4u);
  // A delta flag must also round-trip.
  db.SetDelta(TupleId{vals, 0});
  return db;
}

void ExpectSameInstance(const Database& a, const Database& b) {
  ASSERT_EQ(a.num_relations(), b.num_relations());
  for (uint32_t r = 0; r < a.num_relations(); ++r) {
    const Relation& ra = a.relation(r);
    const Relation& rb = b.relation(r);
    EXPECT_EQ(ra.schema().ToString(), rb.schema().ToString());
    ASSERT_EQ(ra.num_rows(), rb.num_rows());
    for (uint32_t row = 0; row < ra.num_rows(); ++row) {
      EXPECT_EQ(ra.DecodeRow(row), rb.DecodeRow(row))
          << a.relation(r).schema().name() << " row " << row;
      TupleId id{r, row};
      EXPECT_EQ(a.live(id), b.live(id));
      EXPECT_EQ(a.delta(id), b.delta(id));
    }
  }
  EXPECT_EQ(a.TotalLive(), b.TotalLive());
  EXPECT_EQ(a.TotalDelta(), b.TotalDelta());
}

/// The paper's running example; the fixture behind the server tests.
Database MakePaperDb() {
  Database db;
  uint32_t author = db.AddRelation(RelationSchema(
      "Author", {{"aid", ValueType::kInt},
                 {"name", ValueType::kString},
                 {"oid", ValueType::kInt}}));
  uint32_t org = db.AddRelation(RelationSchema(
      "Org", {{"oid", ValueType::kInt}, {"oname", ValueType::kString}}));
  uint32_t writes = db.AddRelation(RelationSchema(
      "Writes", {{"aid", ValueType::kInt}, {"pid", ValueType::kInt}}));
  db.Insert(author, {Value(int64_t{1}), Value("Alice"), Value(int64_t{100})});
  db.Insert(author, {Value(int64_t{2}), Value("Bob"), Value(int64_t{200})});
  db.Insert(author, {Value(int64_t{3}), Value("Carol"), Value(int64_t{300})});
  db.Insert(org, {Value(int64_t{100}), Value("ERC")});
  db.Insert(org, {Value(int64_t{200}), Value("UCSD")});
  db.Insert(org, {Value(int64_t{300}), Value("UCSD")});
  db.Insert(writes, {Value(int64_t{1}), Value(int64_t{10})});
  db.Insert(writes, {Value(int64_t{2}), Value(int64_t{10})});
  db.Insert(writes, {Value(int64_t{2}), Value(int64_t{20})});
  db.Insert(writes, {Value(int64_t{3}), Value(int64_t{20})});
  return db;
}

const char kPaperProgram[] =
    "~Author(a, n, o) :- Author(a, n, o), Org(o, x), x = 'ERC'.\n"
    "~Writes(a, p) :- Writes(a, p), ~Author(a, n, o).\n";

/// Zeroes every "*_seconds" timing field so reports from different runs
/// compare byte-identical.
std::string ScrubSeconds(const std::string& json) {
  static const std::regex kSeconds(
      "\"([A-Za-z_]*_seconds)\":[-+0-9.eE]+");
  return std::regex_replace(json, kSeconds, "\"$1\":0");
}

// ---------------------------------------------------------------------------
// Snapshot round-trips.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, RoundTripEveryValueShape) {
  Database db = MakeKitchenSinkDb();
  std::string bytes = EncodeSnapshot(db);

  Database decoded;
  ASSERT_TRUE(DecodeSnapshot(bytes, &decoded).ok());
  ExpectSameInstance(db, decoded);
}

TEST(SnapshotTest, EncodingMatchesGoldenDigest) {
  // MAS x1 plus a relation of null, inline-range edge, INT64_MIN/MAX and
  // wrong-typed cells, with a retracted row and a delta flag. The digest
  // pins the snapshot bytes: the format carries decoded values, so how
  // rows are stored in memory must not change a byte.
  MasData mas = GenerateMas(MasConfig{});
  Database& db = mas.db;
  uint32_t mixed = db.AddRelation(RelationSchema(
      "Mixed", {{"i", ValueType::kInt}, {"s", ValueType::kString}}));
  const int64_t edge = int64_t{1} << 62;
  db.Insert(mixed, {Value(), Value("a")});
  db.Insert(mixed, {Value("not an int"), Value(int64_t{5})});
  db.Insert(mixed, {Value(INT64_MIN), Value()});
  db.Insert(mixed, {Value(INT64_MAX), Value(std::string())});
  db.Insert(mixed, {Value(edge), Value(-edge)});
  db.Insert(mixed, {Value(edge - 1), Value(-edge - 1)});
  db.Insert(mixed, {Value(), Value()});
  db.base_view().Retract(TupleId{mixed, 1});
  db.SetDelta(TupleId{mixed, 2});
  const std::string bytes = EncodeSnapshot(db);
  EXPECT_EQ(bytes.size(), 165129u);
  EXPECT_EQ(HashBytes(bytes), 0x5392f476a6bd21f8ULL);

  Database decoded;
  ASSERT_TRUE(DecodeSnapshot(bytes, &decoded).ok());
  ExpectSameInstance(db, decoded);
  EXPECT_EQ(EncodeSnapshot(decoded), bytes);
}

TEST(SnapshotTest, RebuildsDedupeTable) {
  Database db = MakeKitchenSinkDb();
  Database decoded;
  ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(db), &decoded).ok());

  // Re-inserting the deleted row 1 must dedupe-hit and revive the same
  // slot, proving the hash table was rebuilt from the snapshot.
  size_t rows_before = decoded.relation(0).num_rows();
  TupleId id = decoded.Insert(uint32_t{0}, {Value(INT64_MIN), Value("min")});
  EXPECT_EQ(id.row, 1u);
  EXPECT_TRUE(decoded.live(id));
  EXPECT_EQ(decoded.relation(0).num_rows(), rows_before);
}

TEST(SnapshotTest, RoundTripEmptyDatabaseAndEmptyRelations) {
  Database db;
  Database decoded;
  ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(db), &decoded).ok());
  EXPECT_EQ(decoded.num_relations(), 0u);

  Database db2;
  db2.AddRelation(RelationSchema("A", {{"x", ValueType::kInt}}));
  db2.AddRelation(RelationSchema(
      "B", {{"y", ValueType::kString}, {"z", ValueType::kInt}}));
  Database decoded2;
  ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(db2), &decoded2).ok());
  ExpectSameInstance(db2, decoded2);
}

TEST(SnapshotTest, RejectsCorruptionWithTypedStatus) {
  Database db = MakeKitchenSinkDb();
  std::string good = EncodeSnapshot(db);

  {  // Bad magic.
    std::string bad = good;
    bad[0] ^= 0x5a;
    Database d;
    EXPECT_FALSE(DecodeSnapshot(bad, &d).ok());
  }
  {  // Flipped byte deep in a relation section -> checksum mismatch.
    std::string bad = good;
    bad[bad.size() / 2] ^= 0x5a;
    Database d;
    EXPECT_FALSE(DecodeSnapshot(bad, &d).ok());
  }
  {  // Truncation at several depths.
    for (size_t keep : {size_t{4}, good.size() / 3, good.size() - 3}) {
      Database d;
      EXPECT_FALSE(DecodeSnapshot(good.substr(0, keep), &d).ok())
          << "kept " << keep;
    }
  }
  {  // Trailing garbage.
    Database d;
    EXPECT_FALSE(DecodeSnapshot(good + "junk", &d).ok());
  }
  {  // Target database must be empty.
    Database d = MakePaperDb();
    Status st = DecodeSnapshot(good, &d);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  }
}

TEST(SnapshotTest, FileRoundTripIsAtomic) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/snap.drs";
  Database db = MakeKitchenSinkDb();
  ASSERT_TRUE(WriteSnapshotFile(db, path).ok());
  // No temp file left behind.
  EXPECT_FALSE(static_cast<bool>(std::ifstream(path + ".tmp")));

  Database loaded;
  ASSERT_TRUE(LoadSnapshotFile(path, &loaded).ok());
  ExpectSameInstance(db, loaded);
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// WAL replay + torn-tail recovery.
// ---------------------------------------------------------------------------

TEST(WalTest, ReplayAppliesInsertsAndDeletes) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.drl";
  Database db = MakePaperDb();

  WalWriter wal;
  ASSERT_TRUE(wal.Open(path).ok());
  std::vector<Tuple> ins = {
      {Value(int64_t{4}), Value("Dana"), Value(int64_t{200})}};
  std::vector<Tuple> del = {{Value(int64_t{1}), Value(int64_t{10})}};
  ASSERT_TRUE(wal.Append(WalOp::kInsert, 0, 3, ins, false).ok());
  ASSERT_TRUE(wal.Append(WalOp::kDelete, 2, 2, del, false).ok());
  wal.Close();

  Database replayed = MakePaperDb();
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(path, &replayed, &stats).ok());
  EXPECT_EQ(stats.records_applied, 2u);
  EXPECT_EQ(stats.tuples_applied, 2u);
  EXPECT_EQ(stats.bytes_dropped, 0u);
  EXPECT_EQ(replayed.live_count(0), 4u);  // Dana inserted
  EXPECT_EQ(replayed.live_count(2), 3u);  // Writes(1,10) gone
  // External deletes must NOT leave delta flags behind.
  EXPECT_EQ(replayed.TotalDelta(), 0u);
  RemoveTree(dir);
}

TEST(WalTest, TornTailIsDroppedAtEveryCutPoint) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.drl";

  WalWriter wal;
  ASSERT_TRUE(wal.Open(path).ok());
  std::vector<Tuple> ins = {
      {Value(int64_t{4}), Value("Dana"), Value(int64_t{200})}};
  ASSERT_TRUE(wal.Append(WalOp::kInsert, 0, 3, ins, false).ok());
  ASSERT_TRUE(wal.Append(WalOp::kInsert, 0, 3,
                         {{Value(int64_t{5}), Value("Eve"),
                           Value(int64_t{300})}},
                         false)
                  .ok());
  wal.Close();

  std::string good = ReadFileBytes(path);
  std::string one_record;
  {
    // Reconstruct where record 1 ends: replay a prefix-truncated copy
    // cut after the first record by scanning for the second payload.
    std::string payload1 = EncodeWalRecord(WalOp::kInsert, 0, 3, ins);
    size_t rec1_len = 4 + payload1.size() + 4;
    one_record = good.substr(0, 8 + rec1_len);
  }

  // Cut the second record short at every byte boundary: in its length
  // prefix, mid-payload, and inside the trailing crc. The first record
  // must survive every cut.
  for (size_t keep = one_record.size() + 1; keep < good.size(); ++keep) {
    WriteFileBytes(path, good.substr(0, keep));
    Database db = MakePaperDb();
    WalReplayStats stats;
    ASSERT_TRUE(ReplayWal(path, &db, &stats).ok()) << "cut at " << keep;
    EXPECT_EQ(stats.records_applied, 1u) << "cut at " << keep;
    EXPECT_EQ(stats.bytes_dropped, keep - one_record.size())
        << "cut at " << keep;
    EXPECT_EQ(db.live_count(0), 4u);
  }

  // A corrupted (not truncated) tail record is dropped the same way.
  std::string flipped = good;
  flipped[good.size() - 2] ^= 0x40;  // inside record 2's crc
  WriteFileBytes(path, flipped);
  Database db = MakePaperDb();
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(path, &db, &stats).ok());
  EXPECT_EQ(stats.records_applied, 1u);
  EXPECT_GT(stats.bytes_dropped, 0u);
  RemoveTree(dir);
}

TEST(WalTest, MissingFileIsEmptyLogButBadHeaderIsAnError) {
  std::string dir = MakeTempDir();
  Database db = MakePaperDb();
  WalReplayStats stats;
  EXPECT_TRUE(ReplayWal(dir + "/nope.drl", &db, &stats).ok());
  EXPECT_EQ(stats.records_applied, 0u);

  WriteFileBytes(dir + "/bad.drl", "NOTAWAL!");
  EXPECT_FALSE(ReplayWal(dir + "/bad.drl", &db, &stats).ok());
  RemoveTree(dir);
}

TEST(WalTest, ReplayIsIdempotent) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/wal.drl";
  WalWriter wal;
  ASSERT_TRUE(wal.Open(path).ok());
  std::vector<Tuple> ins = {
      {Value(int64_t{4}), Value("Dana"), Value(int64_t{200})}};
  std::vector<Tuple> del = {{Value(int64_t{1}), Value(int64_t{10})}};
  ASSERT_TRUE(wal.Append(WalOp::kInsert, 0, 3, ins, false).ok());
  ASSERT_TRUE(wal.Append(WalOp::kDelete, 2, 2, del, false).ok());
  wal.Close();

  // Replaying the log twice (the compact-crash window: the snapshot
  // already contains the log's effects) must be a no-op the second time.
  Database db = MakePaperDb();
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(path, &db, &stats).ok());
  Database once = db;
  ASSERT_TRUE(ReplayWal(path, &db, &stats).ok());
  ExpectSameInstance(once, db);
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// PersistentStore.
// ---------------------------------------------------------------------------

TEST(StoreTest, CreateApplyReopenRecoversEverything) {
  std::string dir = MakeTempDir();
  {
    StatusOr<std::unique_ptr<PersistentStore>> created =
        PersistentStore::Create(dir, MakePaperDb());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    PersistentStore& store = **created;
    ASSERT_TRUE(
        store
            .ApplyInsert(0, {{Value(int64_t{4}), Value("Dana"),
                              Value(int64_t{200})}})
            .ok());
    ASSERT_TRUE(
        store.ApplyDelete(2, {{Value(int64_t{1}), Value(int64_t{10})}})
            .ok());
    EXPECT_EQ(store.updates_applied(), 2u);
    // Deleting a tuple that is not live is a logged no-op, not an error.
    ASSERT_TRUE(
        store.ApplyDelete(2, {{Value(int64_t{1}), Value(int64_t{10})}})
            .ok());
    // Unknown relation / wrong arity are typed errors.
    EXPECT_FALSE(store.ApplyInsert(99, {{Value(int64_t{1})}}).ok());
    EXPECT_FALSE(store.ApplyInsert(0, {{Value(int64_t{1})}}).ok());
  }
  {
    StatusOr<std::unique_ptr<PersistentStore>> opened =
        PersistentStore::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    PersistentStore& store = **opened;
    EXPECT_EQ(store.recovery_stats().records_applied, 3u);
    EXPECT_EQ(store.recovery_stats().bytes_dropped, 0u);
    EXPECT_EQ(store.db().live_count(0), 4u);
    EXPECT_EQ(store.db().live_count(2), 3u);
  }
  // A second Create on the same directory must refuse.
  EXPECT_FALSE(PersistentStore::Create(dir, MakePaperDb()).ok());
  RemoveTree(dir);
}

TEST(StoreTest, KillAfterPartialWalAppendRecovers) {
  std::string dir = MakeTempDir();
  {
    StatusOr<std::unique_ptr<PersistentStore>> created =
        PersistentStore::Create(dir, MakePaperDb());
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE((*created)
                    ->ApplyInsert(0, {{Value(int64_t{4}), Value("Dana"),
                                       Value(int64_t{200})}})
                    .ok());
  }
  // Simulate a crash mid-append: half of a record's framing lands on
  // disk, then the process dies.
  std::string wal_path = PersistentStore::WalPath(dir);
  std::string partial = EncodeWalRecord(
      WalOp::kDelete, 2, 2, {{Value(int64_t{1}), Value(int64_t{10})}});
  std::string bytes = ReadFileBytes(wal_path);
  BinaryWriter frame;
  frame.PutU32(static_cast<uint32_t>(partial.size()));
  frame.PutRaw(partial);
  // ... crash before the payload finishes: drop the last 6 bytes and
  // never write the crc.
  std::string torn = frame.str().substr(0, frame.size() - 6);
  WriteFileBytes(wal_path, bytes + torn);

  StatusOr<std::unique_ptr<PersistentStore>> opened =
      PersistentStore::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  PersistentStore& store = **opened;
  EXPECT_EQ(store.recovery_stats().records_applied, 1u);
  EXPECT_EQ(store.recovery_stats().bytes_dropped, torn.size());
  EXPECT_EQ(store.db().live_count(0), 4u);   // the complete insert
  EXPECT_EQ(store.db().live_count(2), 4u);   // the torn delete: dropped

  // The store stays writable after recovery; new appends land after the
  // valid prefix and replay cleanly next time.
  ASSERT_TRUE(
      store.ApplyDelete(2, {{Value(int64_t{2}), Value(int64_t{20})}}).ok());
  RemoveTree(dir);
}

TEST(StoreTest, CompactFoldsWalAndSurvivesCrashBetweenSteps) {
  std::string dir = MakeTempDir();
  StatusOr<std::unique_ptr<PersistentStore>> created =
      PersistentStore::Create(dir, MakePaperDb());
  ASSERT_TRUE(created.ok());
  PersistentStore& store = **created;
  ASSERT_TRUE(store
                  .ApplyInsert(0, {{Value(int64_t{4}), Value("Dana"),
                                    Value(int64_t{200})}})
                  .ok());
  ASSERT_TRUE(
      store.ApplyDelete(2, {{Value(int64_t{1}), Value(int64_t{10})}}).ok());

  // Keep the pre-compact WAL around: restoring it after Compact() is
  // exactly the crash-between-snapshot-and-reset window.
  std::string old_wal = ReadFileBytes(PersistentStore::WalPath(dir));
  ASSERT_TRUE(store.Compact().ok());
  EXPECT_EQ(ReadFileBytes(PersistentStore::WalPath(dir)).size(), 8u);

  {  // Normal post-compact open: snapshot only, empty log.
    StatusOr<std::unique_ptr<PersistentStore>> opened =
        PersistentStore::Open(dir);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ((*opened)->recovery_stats().records_applied, 0u);
    ExpectSameInstance(store.db(), (*opened)->db());
  }
  {  // Crash window: old WAL replays over the already-folded snapshot.
    WriteFileBytes(PersistentStore::WalPath(dir), old_wal);
    StatusOr<std::unique_ptr<PersistentStore>> opened =
        PersistentStore::Open(dir);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ((*opened)->recovery_stats().records_applied, 2u);
    ExpectSameInstance(store.db(), (*opened)->db());
  }
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------------

TEST(FramingTest, PipeRoundTripAndCleanEof) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::string payload(100000, 'x');
  payload[77] = '\0';  // embedded NUL survives
  std::thread writer([&] {
    EXPECT_TRUE(WriteFrame(fds[1], FrameType::kJson, payload).ok());
    close(fds[1]);
  });
  Frame frame;
  ASSERT_TRUE(ReadFrame(fds[0], &frame).ok());
  EXPECT_EQ(frame.type, FrameType::kJson);
  EXPECT_EQ(frame.payload, payload);
  // Peer closed between frames: clean EOF, reported as NotFound.
  Status st = ReadFrame(fds[0], &frame);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  writer.join();
  close(fds[0]);
}

TEST(FramingTest, RejectsCorruptFrames) {
  std::string good = EncodeFrame(FrameType::kPingRequest, "abc");
  Frame f;
  ASSERT_TRUE(DecodeFrame(good, &f).ok());
  std::string bad_crc = good;
  bad_crc.back() ^= 0x1;
  EXPECT_FALSE(DecodeFrame(bad_crc, &f).ok());
  std::string bad_magic = good;
  bad_magic[0] ^= 0x1;
  EXPECT_FALSE(DecodeFrame(bad_magic, &f).ok());
  EXPECT_FALSE(DecodeFrame(good.substr(0, good.size() - 1), &f).ok());
}

// ---------------------------------------------------------------------------
// Request codec.
// ---------------------------------------------------------------------------

TEST(RequestCodecTest, RepairRequestRoundTrip) {
  RepairRequest request("step");
  request.apply = true;
  request.options.budget_seconds = 1.5;
  request.options.seed = 42;
  request.options.verify_after_run = true;
  request.options.threads = 3;
  request.options.step.ordering = StepOrdering::kArbitrary;
  request.options.independent.min_ones.max_assignments = 123;
  request.options.independent.min_ones.time_limit_seconds = 0.25;
  request.options.independent.min_ones.decompose_components = false;
  request.options.independent.min_ones.enable_learning = false;
  request.options.independent.min_ones.enable_restarts = false;
  request.options.independent.min_ones.max_totalizer_area = 77;

  const std::string bytes = EncodeRepairRequest(request);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes[0], 3);  // codec version
  RepairRequest decoded;
  ASSERT_TRUE(DecodeRepairRequest(bytes, &decoded).ok());
  EXPECT_EQ(decoded.semantics, "step");
  EXPECT_TRUE(decoded.apply);
  EXPECT_EQ(decoded.options.budget_seconds, 1.5);
  EXPECT_EQ(decoded.options.seed, 42u);
  EXPECT_TRUE(decoded.options.verify_after_run);
  EXPECT_EQ(decoded.options.threads, 3);
  EXPECT_EQ(decoded.options.step.ordering, StepOrdering::kArbitrary);
  const MinOnesOptions& mo = decoded.options.independent.min_ones;
  EXPECT_EQ(mo.max_assignments, 123u);
  EXPECT_EQ(mo.time_limit_seconds, 0.25);
  EXPECT_FALSE(mo.decompose_components);
  EXPECT_FALSE(mo.enable_learning);
  EXPECT_FALSE(mo.enable_restarts);
  EXPECT_EQ(mo.max_totalizer_area, 77u);
  // Process-local fields never travel.
  EXPECT_EQ(decoded.options.cancel, nullptr);
  EXPECT_EQ(decoded.options.record_provenance, nullptr);
}

/// A version-2 repair frame, laid out by hand: v2 options still carry
/// two retired Min-Ones fields, a flag byte and a thread count.
std::string V2RepairFrame(uint8_t retired_flag, uint32_t retired_threads) {
  BinaryWriter w;
  w.PutU8(2);              // version
  w.PutString("step");     // semantics
  w.PutU8(1);              // apply
  w.PutDouble(1.5);        // budget_seconds
  w.PutU64(42);            // seed
  w.PutU8(1);              // verify_after_run
  w.PutU32(3);             // threads
  w.PutU8(static_cast<uint8_t>(StepOrdering::kArbitrary));
  w.PutU64(123);           // min_ones.max_assignments
  w.PutDouble(0.25);       // min_ones.time_limit_seconds
  w.PutU8(0);              // min_ones.decompose_components
  w.PutU8(0);              // min_ones.enable_learning
  w.PutU8(1);              // min_ones.enable_restarts
  w.PutU64(77);            // min_ones.max_totalizer_area
  w.PutU8(retired_flag);
  w.PutU32(retired_threads);
  w.PutU64(0xfeed);        // trace_id
  return w.Take();
}

TEST(RequestCodecTest, V2RepairFrameStillDecodes) {
  RepairRequest decoded;
  Status st = DecodeRepairRequest(V2RepairFrame(1, 4), &decoded);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(decoded.semantics, "step");
  EXPECT_TRUE(decoded.apply);
  EXPECT_EQ(decoded.options.budget_seconds, 1.5);
  EXPECT_EQ(decoded.options.seed, 42u);
  EXPECT_TRUE(decoded.options.verify_after_run);
  EXPECT_EQ(decoded.options.threads, 3);
  EXPECT_EQ(decoded.options.step.ordering, StepOrdering::kArbitrary);
  const MinOnesOptions& mo = decoded.options.independent.min_ones;
  EXPECT_EQ(mo.max_assignments, 123u);
  EXPECT_EQ(mo.time_limit_seconds, 0.25);
  EXPECT_FALSE(mo.decompose_components);
  EXPECT_FALSE(mo.enable_learning);
  EXPECT_TRUE(mo.enable_restarts);
  EXPECT_EQ(mo.max_totalizer_area, 77u);
  EXPECT_EQ(decoded.trace_id, 0xfeedu);
}

TEST(RequestCodecTest, V2RetiredFieldsAreStillValidated) {
  // The retired bytes come from outside the process: decoding checks
  // them before dropping them.
  RepairRequest decoded;
  Status bad_flag = DecodeRepairRequest(V2RepairFrame(2, 1), &decoded);
  EXPECT_EQ(bad_flag.code(), StatusCode::kInvalidArgument)
      << bad_flag.ToString();
  Status bad_threads = DecodeRepairRequest(V2RepairFrame(0, 1025), &decoded);
  EXPECT_EQ(bad_threads.code(), StatusCode::kInvalidArgument)
      << bad_threads.ToString();
}

TEST(RequestCodecTest, CqaRequestRoundTrip) {
  CqaRequest request("independent", "q(a) :- Author(a, n, o)");
  request.certain = true;
  request.possible = false;
  request.annotate = true;
  request.options.budget_seconds = 0.5;
  request.options.seed = 9;

  CqaRequest decoded;
  ASSERT_TRUE(DecodeCqaRequest(EncodeCqaRequest(request), &decoded).ok());
  EXPECT_EQ(decoded.semantics, "independent");
  EXPECT_EQ(decoded.query, request.query);
  EXPECT_TRUE(decoded.certain);
  EXPECT_FALSE(decoded.possible);
  EXPECT_TRUE(decoded.annotate);
  EXPECT_EQ(decoded.options.budget_seconds, 0.5);
  EXPECT_EQ(decoded.options.seed, 9u);
}

TEST(RequestCodecTest, UpdateRequestRoundTrip) {
  UpdateRequest request;
  request.op = WalOp::kDelete;
  request.relation = "Vals";
  request.tuples = {{Value(), Value(int64_t{INT64_MIN}), Value("")},
                    {Value(int64_t{1}), Value(int64_t{2}), Value("x")}};
  UpdateRequest decoded;
  ASSERT_TRUE(
      DecodeUpdateRequest(EncodeUpdateRequest(request), &decoded).ok());
  EXPECT_EQ(decoded.op, WalOp::kDelete);
  EXPECT_EQ(decoded.relation, "Vals");
  ASSERT_EQ(decoded.tuples.size(), 2u);
  EXPECT_EQ(decoded.tuples[0], request.tuples[0]);
  EXPECT_EQ(decoded.tuples[1], request.tuples[1]);
}

TEST(RequestCodecTest, StrictValidationRejectsBadRequests) {
  {  // Unknown semantics.
    RepairRequest r("no-such-semantics");
    EXPECT_FALSE(ValidateRepairRequest(r).ok());
    RepairRequest ok("end");
    EXPECT_TRUE(ValidateRepairRequest(ok).ok());
  }
  {  // Non-finite and negative budgets.
    RepairRequest r("end");
    r.options.budget_seconds = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(ValidateRepairRequest(r).ok());
    r.options.budget_seconds = -1;
    EXPECT_FALSE(ValidateRepairRequest(r).ok());
  }
  {  // Thread counts.
    RepairRequest r("end");
    r.options.threads = 100000;
    EXPECT_FALSE(ValidateRepairRequest(r).ok());
  }
  {  // CQA must ask for at least one verdict and carry a query.
    CqaRequest r("end", "q() :- A(x)");
    r.certain = false;
    r.possible = false;
    r.annotate = false;
    EXPECT_FALSE(ValidateCqaRequest(r).ok());
    CqaRequest empty("end", "");
    EXPECT_FALSE(ValidateCqaRequest(empty).ok());
  }
  {  // Decoders run validation + reject malformed bytes.
    RepairRequest bad("no-such-semantics");
    RepairRequest out;
    EXPECT_FALSE(
        DecodeRepairRequest(EncodeRepairRequest(bad), &out).ok());
    EXPECT_FALSE(DecodeRepairRequest("", &out).ok());
    std::string good = EncodeRepairRequest(RepairRequest("end"));
    EXPECT_FALSE(DecodeRepairRequest(good + "x", &out).ok());  // trailing
    std::string bad_version = good;
    bad_version[0] = 99;
    EXPECT_FALSE(DecodeRepairRequest(bad_version, &out).ok());
    EXPECT_FALSE(
        DecodeRepairRequest(good.substr(0, good.size() / 2), &out).ok());
  }
}

// ---------------------------------------------------------------------------
// Server end to end.
// ---------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir();
    StatusOr<std::unique_ptr<PersistentStore>> created =
        PersistentStore::Create(dir_, MakePaperDb());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    StartServer(std::move(created).value());
  }

  void StartServer(std::unique_ptr<PersistentStore> store) {
    ServerOptions options;
    options.workers = 2;
    StatusOr<std::unique_ptr<RepairServer>> server = RepairServer::Start(
        std::move(store), MustParseProgram(kPaperProgram), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  void TearDown() override {
    if (server_) server_->Stop();
    RemoveTree(dir_);
  }

  std::string Call(FrameType type, const std::string& payload) {
    StatusOr<std::string> response =
        CallServerJson(server_->port(), type, payload);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? *response : std::string();
  }

  std::string dir_;
  std::unique_ptr<RepairServer> server_;
};

TEST_F(ServerTest, PingStatsAndErrors) {
  EXPECT_NE(Call(FrameType::kPingRequest, "").find("\"ok\":true"),
            std::string::npos);
  std::string stats = Call(FrameType::kStatsRequest, "");
  EXPECT_NE(stats.find("\"relations\":3"), std::string::npos);
  EXPECT_NE(stats.find("\"total_live\":10"), std::string::npos);

  // A malformed request gets a typed error frame, not a dropped
  // connection (and certainly not a crash).
  StatusOr<std::string> bad =
      CallServerJson(server_->port(), FrameType::kRepairRequest, "junk");
  EXPECT_FALSE(bad.ok());
  EXPECT_GE(server_->stats().request_errors, 1u);
}

TEST_F(ServerTest, RepairMatchesDirectExecution) {
  RepairRequest request("end");
  request.options.verify_after_run = true;
  std::string json =
      Call(FrameType::kRepairRequest, EncodeRepairRequest(request));
  // The ERC author and their paper: 2 deletions, verified stabilizing.
  EXPECT_NE(json.find("\"semantics\":\"end\""), std::string::npos);
  EXPECT_NE(json.find("\"deleted\":2"), std::string::npos);
  EXPECT_NE(json.find("\"verified_stabilizing\":true"), std::string::npos);
  // Read-only by default: the stored instance is untouched.
  EXPECT_EQ(server_->store().db().TotalLive(), 10u);
}

TEST_F(ServerTest, CqaAnswersQueries) {
  CqaRequest request("end", "q(n) :- Author(a, n, o)");
  request.annotate = false;
  std::string json = Call(FrameType::kCqaRequest, EncodeCqaRequest(request));
  EXPECT_NE(json.find("\"query_head\""), std::string::npos);
  // Alice is the ERC author every repair deletes: possible-only. Bob and
  // Carol survive every repair: certain.
  EXPECT_NE(json.find("Alice"), std::string::npos);
  EXPECT_NE(json.find("Bob"), std::string::npos);
}

TEST_F(ServerTest, UpdatesPersistAcrossRestart) {
  UpdateRequest insert;
  insert.op = WalOp::kInsert;
  insert.relation = "Writes";
  insert.tuples = {{Value(int64_t{3}), Value(int64_t{30})}};
  std::string ack =
      Call(FrameType::kUpdateRequest, EncodeUpdateRequest(insert));
  EXPECT_NE(ack.find("\"ok\":true"), std::string::npos);

  UpdateRequest del;
  del.op = WalOp::kDelete;
  del.relation = "Org";
  del.tuples = {{Value(int64_t{300}), Value("UCSD")}};
  Call(FrameType::kUpdateRequest, EncodeUpdateRequest(del));
  EXPECT_EQ(server_->store().db().TotalLive(), 10u);  // +1 -1

  // Unknown relation: typed error.
  UpdateRequest bad;
  bad.relation = "Nope";
  bad.tuples = {{Value(int64_t{1})}};
  StatusOr<std::string> response = CallServerJson(
      server_->port(), FrameType::kUpdateRequest, EncodeUpdateRequest(bad));
  EXPECT_FALSE(response.ok());

  // Stop the server, reopen the store from disk: updates survived.
  server_->Stop();
  server_.reset();
  StatusOr<std::unique_ptr<PersistentStore>> opened =
      PersistentStore::Open(dir_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->db().TotalLive(), 10u);
  int writes = (*opened)->db().RelationIndex("Writes");
  EXPECT_EQ((*opened)->db().live_count(static_cast<uint32_t>(writes)), 5u);
}

TEST_F(ServerTest, ReportsAreByteIdenticalAcrossRestart) {
  RepairRequest request("step");
  request.options.verify_after_run = true;
  std::string payload = EncodeRepairRequest(request);
  std::string before = ScrubSeconds(Call(FrameType::kRepairRequest, payload));

  CqaRequest cqa("stage", "q(n) :- Author(a, n, o)");
  std::string cqa_payload = EncodeCqaRequest(cqa);
  std::string cqa_before =
      ScrubSeconds(Call(FrameType::kCqaRequest, cqa_payload));

  // Restart the world: drain, reopen the store from snapshot+WAL, start
  // a fresh server. The reports must match byte for byte (timings
  // scrubbed).
  server_->Drain();
  server_.reset();
  StatusOr<std::unique_ptr<PersistentStore>> opened =
      PersistentStore::Open(dir_);
  ASSERT_TRUE(opened.ok());
  StartServer(std::move(opened).value());

  EXPECT_EQ(before, ScrubSeconds(Call(FrameType::kRepairRequest, payload)));
  EXPECT_EQ(cqa_before,
            ScrubSeconds(Call(FrameType::kCqaRequest, cqa_payload)));
}

TEST_F(ServerTest, ConcurrentMixedTrafficIsSafe) {
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  std::atomic<unsigned> answered{0};
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&, i] {
      for (int j = 0; j < 5; ++j) {
        StatusOr<std::string> response = Status::Internal("unset");
        if (i % 3 == 0) {
          RepairRequest r("end");
          response = CallServerJson(server_->port(),
                                    FrameType::kRepairRequest,
                                    EncodeRepairRequest(r));
        } else if (i % 3 == 1) {
          CqaRequest r("stage", "q(n) :- Author(a, n, o)");
          response = CallServerJson(server_->port(), FrameType::kCqaRequest,
                                    EncodeCqaRequest(r));
        } else {
          response = CallServerJson(server_->port(),
                                    FrameType::kStatsRequest, "");
        }
        // Overload rejections are allowed by contract; transport errors
        // and crashes are not.
        if (response.ok()) {
          ++answered;
        } else if (response.status().code() !=
                   StatusCode::kResourceExhausted) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every request was answered or admitted-and-rejected; the server must
  // have served at least every answered one, and overload rejections
  // must be the exception, not the rule.
  EXPECT_GE(server_->stats().served, answered.load());
  EXPECT_GE(answered.load(), 30u);
}

TEST_F(ServerTest, DrainStopsAcceptingAndServesQueueDry) {
  EXPECT_NE(Call(FrameType::kPingRequest, "").find("ok"),
            std::string::npos);
  server_->Drain();
  // Connections after drain fail fast (socket closed) or get a typed
  // refusal — either way no hang and no success.
  StatusOr<std::string> after =
      CallServerJson(server_->port(), FrameType::kPingRequest, "");
  EXPECT_FALSE(after.ok());
  // Second drain is a no-op.
  server_->Drain();
}

}  // namespace
}  // namespace deltarepair
