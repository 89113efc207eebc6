// Unit tests for the relational engine: values, tuples, the cell-code
// layer (ValueDict), the immutable relation storage core (interning +
// lazy indexes), the per-run RelationView membership bitmaps, and
// database snapshots.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/random.h"
#include "datalog/ast.h"
#include "relation/database.h"

namespace deltarepair {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  Value null;
  Value i(int64_t{42});
  Value s("hello");
  EXPECT_TRUE(null.is_null());
  EXPECT_TRUE(i.is_int());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.AsInt(), 42);
  EXPECT_EQ(s.AsString(), "hello");
}

TEST(ValueTest, OrderingWithinAndAcrossTypes) {
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_LT(Value(int64_t{999}), Value("a"));  // int < string by type tag
  EXPECT_LT(Value(), Value(int64_t{0}));       // null < int
  EXPECT_GE(Value(int64_t{3}), Value(int64_t{3}));
  EXPECT_LE(Value(int64_t{3}), Value(int64_t{3}));
}

TEST(ValueTest, EqualityAndHash) {
  EXPECT_EQ(Value(int64_t{5}), Value(int64_t{5}));
  EXPECT_NE(Value(int64_t{5}), Value("5"));
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
  EXPECT_NE(Value("x").Hash(), Value("y").Hash());
  EXPECT_NE(Value(int64_t{1}).Hash(), Value(int64_t{2}).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value("ab").ToString(), "'ab'");
  EXPECT_EQ(Value().ToString(), "null");
}

TEST(TupleTest, HashAndToString) {
  Tuple t{Value(int64_t{1}), Value("x")};
  Tuple u{Value(int64_t{1}), Value("x")};
  Tuple v{Value("x"), Value(int64_t{1})};
  EXPECT_EQ(HashTuple(t), HashTuple(u));
  EXPECT_NE(HashTuple(t), HashTuple(v));  // order-sensitive
  EXPECT_EQ(TupleToString(t), "(1, 'x')");
}

TEST(TupleIdTest, PackUnpack) {
  TupleId id{3, 77};
  EXPECT_EQ(TupleId::Unpack(id.Pack()), id);
  EXPECT_TRUE(id.valid());
  EXPECT_FALSE(TupleId{}.valid());
  EXPECT_LT((TupleId{1, 5}), (TupleId{2, 0}));
  EXPECT_LT((TupleId{1, 5}), (TupleId{1, 6}));
}

TEST(SchemaTest, AttributeLookupAndToString) {
  RelationSchema s = MakeSchema("R", {"a", "b"}, "is");
  EXPECT_EQ(s.arity(), 2u);
  EXPECT_EQ(s.AttributeIndex("b"), 1);
  EXPECT_EQ(s.AttributeIndex("zz"), -1);
  EXPECT_EQ(s.ToString(), "R(a:int, b:str)");
}

/// Every value shape a caller can insert: null, ints at and past the
/// inline range's edges, INT64_MIN/MAX, the empty and non-empty strings.
std::vector<Value> EdgeValues() {
  const int64_t lo = -(int64_t{1} << 62);
  const int64_t hi = (int64_t{1} << 62) - 1;
  return {Value(),        Value(int64_t{0}), Value(int64_t{-1}),
          Value(lo),      Value(hi),         Value(lo - 1),
          Value(hi + 1),  Value(INT64_MIN),  Value(INT64_MAX),
          Value(std::string()), Value("x"),  Value("a longer string value")};
}

/// A random value: null, an int over the whole int64 range or near the
/// inline edges, or a short string.
Value RandomValue(Rng* rng) {
  switch (rng->NextBounded(5)) {
    case 0:
      return Value();
    case 1:
      return Value(static_cast<int64_t>(rng->Next()));
    case 2:
      return Value(rng->NextInRange(-3, 3) +
                   (rng->NextBool(0.5) ? (int64_t{1} << 62)
                                       : -(int64_t{1} << 62)));
    case 3:
      return Value(rng->NextInRange(-20, 20));
    default:
      return Value(std::string(rng->NextBounded(3), 'a' + rng->NextBounded(3)));
  }
}

TEST(ValueDictTest, EveryValueShapeRoundTrips) {
  ValueDict dict;
  for (const Value& v : EdgeValues()) {
    Code code = dict.Intern(v);
    EXPECT_EQ(dict.Decode(code), v) << v.ToString();
    Code found = ~code;
    ASSERT_TRUE(dict.Find(v, &found)) << v.ToString();
    EXPECT_EQ(found, code) << v.ToString();
    const bool inline_int = v.is_int() && ValueDict::FitsInline(v.AsInt());
    EXPECT_EQ(ValueDict::IsInline(code), inline_int) << v.ToString();
  }
  // Inline ints never enter the dictionary.
  EXPECT_EQ(dict.size(), 8u);
}

TEST(ValueDictTest, MixedTypeColumnRoundTripsThroughInternRow) {
  // Cells whose type differs from the declared column type are stored
  // and decoded as given (the request codec and the WAL accept them).
  ValueDict dict;
  Relation r(MakeSchema("R", {"i", "s"}, "is"), &dict);
  std::vector<Tuple> rows;
  std::vector<Value> edges = EdgeValues();
  for (size_t k = 0; k < edges.size(); ++k) {
    rows.push_back({edges[k], edges[edges.size() - 1 - k]});
  }
  for (const Tuple& t : rows) EXPECT_TRUE(r.InternRow(t).inserted);
  ASSERT_EQ(r.num_rows(), rows.size());
  for (uint32_t row = 0; row < rows.size(); ++row) {
    EXPECT_EQ(r.DecodeRow(row), rows[row]) << row;
    EXPECT_EQ(r.Cell(row, 1), rows[row][1]) << row;
    EXPECT_EQ(r.FindRow(rows[row]), static_cast<int64_t>(row));
    EXPECT_EQ(r.RowHash(row), HashTuple(rows[row])) << row;
    // Re-interning is a dedupe hit on the same slot.
    EXPECT_EQ(r.InternRow(rows[row]).row, row);
  }
  EXPECT_EQ(r.num_rows(), rows.size());
}

TEST(ValueDictTest, CodesAreCanonicalAndHashLikeValues) {
  Rng rng(7);
  ValueDict dict;
  std::vector<Value> values;
  std::vector<Code> codes;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(RandomValue(&rng));
    codes.push_back(dict.Intern(values.back()));
    EXPECT_EQ(dict.Hash(codes.back()), values.back().Hash())
        << values.back().ToString();
  }
  for (int i = 0; i < 4000; ++i) {
    size_t a = rng.NextBounded(values.size());
    size_t b = rng.NextBounded(values.size());
    EXPECT_EQ(codes[a] == codes[b], values[a] == values[b])
        << values[a].ToString() << " vs " << values[b].ToString();
  }
}

TEST(ValueDictTest, CodeComparisonsAgreeWithValueComparisons) {
  Rng rng(11);
  ValueDict dict;
  std::vector<Value> values = EdgeValues();
  for (int i = 0; i < 300; ++i) values.push_back(RandomValue(&rng));
  std::vector<Code> codes;
  for (const Value& v : values) codes.push_back(dict.Intern(v));
  const CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                       CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  for (size_t a = 0; a < values.size(); ++a) {
    for (size_t b = 0; b < values.size(); b += 1 + rng.NextBounded(4)) {
      for (CmpOp op : ops) {
        const bool expect = EvalCmp(values[a], op, values[b]);
        EXPECT_EQ(EvalCmp(dict, codes[a], op, codes[b]), expect)
            << values[a].ToString() << " " << CmpOpName(op) << " "
            << values[b].ToString();
        EXPECT_EQ(CmpHolds(op, dict.Compare(codes[a], values[b])), expect)
            << values[a].ToString() << " " << CmpOpName(op) << " "
            << values[b].ToString();
      }
    }
  }
}

TEST(ValueDictTest, FindRowOfAbsentValueDoesNotGrowTheDictionary) {
  Database db;
  uint32_t a = db.AddRelation(MakeSchema("A", {"x", "s"}, "is"));
  db.Insert(a, {Value(int64_t{1}), Value("present")});
  const size_t before = db.dict().size();
  EXPECT_EQ(db.relation(a).FindRow({Value(int64_t{1}), Value("absent")}), -1);
  EXPECT_EQ(db.relation(a).FindRow({Value(INT64_MAX), Value("present")}), -1);
  Code code;
  EXPECT_FALSE(db.dict().Find(Value("absent"), &code));
  // Deleting an absent tuple is a no-op that also leaves it unchanged.
  EXPECT_TRUE(
      db.ApplyUpdate(a, false, {{Value(int64_t{1}), Value("absent")}})
          .empty());
  EXPECT_EQ(db.dict().size(), before);
  EXPECT_EQ(db.relation(a).FindRow({Value(int64_t{1}), Value("present")}), 0);
}

TEST(ValueDictTest, CopiedDatabaseInternsIntoItsOwnDictionary) {
  Database db;
  uint32_t a = db.AddRelation(MakeSchema("A", {"s"}, "s"));
  db.Insert(a, {Value("old")});
  Database copy = db;
  const size_t before = db.dict().size();
  TupleId t = copy.Insert(a, {Value("new")});
  EXPECT_EQ(copy.tuple(t), (Tuple{Value("new")}));
  EXPECT_EQ(copy.dict().size(), before + 1);
  EXPECT_EQ(db.dict().size(), before);
  EXPECT_EQ(db.relation(a).num_rows(), 1u);
  EXPECT_EQ(db.relation(a).FindRow({Value("new")}), -1);
  // A moved database keeps its relations bound to its own dictionary.
  Database moved = std::move(copy);
  EXPECT_EQ(moved.tuple(t), (Tuple{Value("new")}));
  TupleId u = moved.Insert(a, {Value("newer")});
  EXPECT_EQ(moved.tuple(u), (Tuple{Value("newer")}));
  EXPECT_EQ(moved.dict().size(), before + 2);
  EXPECT_EQ(moved.relation(a).FindRow({Value("newer")}),
            static_cast<int64_t>(u.row));
}

TEST(RelationTest, SetSemanticsInternRow) {
  ValueDict dict;
  Relation r(MakeIntSchema("R", {"x", "y"}), &dict);
  auto a = r.InternRow({Value(int64_t{1}), Value(int64_t{2})});
  auto b = r.InternRow({Value(int64_t{1}), Value(int64_t{2})});
  auto c = r.InternRow({Value(int64_t{1}), Value(int64_t{3})});
  EXPECT_TRUE(a.inserted);
  EXPECT_FALSE(b.inserted);
  EXPECT_EQ(a.row, b.row);
  EXPECT_TRUE(c.inserted);
  EXPECT_EQ(r.num_rows(), 2u);
}

TEST(RelationTest, FindRow) {
  ValueDict dict;
  Relation r(MakeIntSchema("R", {"x"}), &dict);
  r.InternRow({Value(int64_t{5})});
  EXPECT_GE(r.FindRow({Value(int64_t{5})}), 0);
  EXPECT_EQ(r.FindRow({Value(int64_t{6})}), -1);
}

TEST(RelationViewTest, DeleteAndDeltaLifecycle) {
  ValueDict dict;
  Relation r(MakeIntSchema("R", {"x"}), &dict);
  uint32_t row = r.InternRow({Value(int64_t{1})}).row;
  RelationView view(r.num_rows());
  EXPECT_TRUE(view.live(row));
  EXPECT_FALSE(view.delta(row));
  view.MarkDeleted(row);
  EXPECT_FALSE(view.live(row));
  EXPECT_TRUE(view.delta(row));
  EXPECT_EQ(view.live_count(), 0u);
  EXPECT_EQ(view.delta_count(), 1u);
  view.UnmarkDeleted(row);
  EXPECT_TRUE(view.live(row));
  EXPECT_FALSE(view.delta(row));
  view.SetDelta(row);
  EXPECT_TRUE(view.live(row));  // SetDelta keeps the base tuple (end mode)
  EXPECT_TRUE(view.delta(row));
  view.ResetAllLive(r.num_rows());
  EXPECT_TRUE(view.live(row));
  EXPECT_FALSE(view.delta(row));
}

TEST(RelationViewTest, ViewsOverOneStorageAreIndependent) {
  ValueDict dict;
  Relation r(MakeIntSchema("R", {"x"}), &dict);
  uint32_t row = r.InternRow({Value(int64_t{1})}).row;
  RelationView a(r.num_rows());
  RelationView b(r.num_rows());
  a.MarkDeleted(row);
  EXPECT_FALSE(a.live(row));
  EXPECT_TRUE(b.live(row));  // b's membership is untouched
  EXPECT_EQ(b.delta_count(), 0u);
}

/// Probes `index` (over `mask`) with the key columns of `key`, hashed the
/// way the grounder hashes its bindings, and returns the chain in order.
std::vector<uint32_t> ProbeChain(const Relation::Index* index,
                                 Relation::ColumnMask mask, const Tuple& key) {
  uint64_t h = Relation::KeyHashSeed(mask);
  for (size_t c = 0; c < key.size(); ++c) {
    if (mask & (1ULL << c)) h = HashCombine(h, key[c].Hash());
  }
  std::vector<uint32_t> rows;
  for (uint32_t r = index->Head(h); r != Relation::Index::kNone;
       r = index->Next(r)) {
    rows.push_back(r);
  }
  return rows;
}

TEST(RelationTest, IndexProbeFindsMatchingRows) {
  ValueDict dict;
  Relation r(MakeIntSchema("R", {"x", "y"}), &dict);
  for (int64_t i = 0; i < 10; ++i) {
    r.InternRow({Value(i % 3), Value(i)});
  }
  const Relation::Index* index = r.EnsureIndex(0b01);  // column 0
  ASSERT_NE(index, nullptr);
  std::vector<uint32_t> rows =
      ProbeChain(index, 0b01, {Value(int64_t{1}), Value()});
  size_t verified = 0;
  for (uint32_t row : rows) {
    if (r.Cell(row, 0) == Value(int64_t{1})) ++verified;
  }
  EXPECT_EQ(verified, 3u);  // i = 1, 4, 7
  EXPECT_TRUE(ProbeChain(index, 0b01, {Value(int64_t{5}), Value()}).empty());
}

TEST(RelationTest, IndexChainsAreInAscendingRowOrder) {
  ValueDict dict;
  Relation r(MakeIntSchema("R", {"x", "y"}), &dict);
  for (int64_t i = 0; i < 40; ++i) {
    r.InternRow({Value(i % 4), Value(i)});
  }
  const Relation::Index* index = r.EnsureIndex(0b01);
  for (int64_t k = 0; k < 4; ++k) {
    std::vector<uint32_t> rows =
        ProbeChain(index, 0b01, {Value(k), Value()});
    ASSERT_EQ(rows.size(), 10u) << k;
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i], static_cast<uint32_t>(k + 4 * i)) << k;
    }
  }
}

TEST(RelationTest, IndexMaintainedAcrossInserts) {
  ValueDict dict;
  Relation r(MakeIntSchema("R", {"x"}), &dict);
  r.EnsureIndex(0b1);
  r.InternRow({Value(int64_t{9})});
  std::vector<uint32_t> rows =
      ProbeChain(r.EnsureIndex(0b1), 0b1, {Value(int64_t{9})});
  EXPECT_EQ(rows, (std::vector<uint32_t>{0}));
}

TEST(RelationTest, RowsInternedAfterEnsureIndexAppendAtTheTail) {
  ValueDict dict;
  Relation r(MakeIntSchema("R", {"x", "y"}), &dict);
  for (int64_t i = 0; i < 6; ++i) r.InternRow({Value(i % 2), Value(i)});
  const Relation::Index* index = r.EnsureIndex(0b01);
  for (int64_t i = 6; i < 12; ++i) r.InternRow({Value(i % 2), Value(i)});
  // A dedupe hit adds no row and must not touch the chain.
  EXPECT_FALSE(r.InternRow({Value(int64_t{0}), Value(int64_t{0})}).inserted);
  EXPECT_EQ(r.EnsureIndex(0b01), index);  // maintained in place
  EXPECT_EQ(ProbeChain(index, 0b01, {Value(int64_t{0}), Value()}),
            (std::vector<uint32_t>{0, 2, 4, 6, 8, 10}));
  EXPECT_EQ(ProbeChain(index, 0b01, {Value(int64_t{1}), Value()}),
            (std::vector<uint32_t>{1, 3, 5, 7, 9, 11}));
}

TEST(RelationTest, IndexGrowsPastManyDistinctKeys) {
  // Thousands of distinct keys force several table doublings, both while
  // EnsureIndex builds (rows 0..n-1) and while InternRow maintains.
  constexpr int64_t kBuilt = 5000;
  constexpr int64_t kAppended = 5000;
  ValueDict dict;
  Relation r(MakeIntSchema("R", {"x", "y"}), &dict);
  for (int64_t i = 0; i < kBuilt; ++i) r.InternRow({Value(i), Value(i % 7)});
  const Relation::Index* by_x = r.EnsureIndex(0b01);
  const Relation::Index* by_y = r.EnsureIndex(0b10);
  for (int64_t i = kBuilt; i < kBuilt + kAppended; ++i) {
    r.InternRow({Value(i), Value(i % 7)});
  }
  for (int64_t i = 0; i < kBuilt + kAppended; ++i) {
    std::vector<uint32_t> rows = ProbeChain(by_x, 0b01, {Value(i), Value()});
    ASSERT_FALSE(rows.empty()) << i;
    EXPECT_EQ(rows.front(), static_cast<uint32_t>(i)) << i;
    EXPECT_EQ(r.Cell(rows.front(), 0), Value(i));
  }
  std::vector<uint32_t> sixes =
      ProbeChain(by_y, 0b10, {Value(), Value(int64_t{6})});
  ASSERT_EQ(sixes.size(), static_cast<size_t>((kBuilt + kAppended) / 7));
  for (size_t i = 0; i < sixes.size(); ++i) {
    EXPECT_EQ(sixes[i], static_cast<uint32_t>(6 + 7 * i));
  }
}

TEST(RelationTest, EnsureIndexIsStableAndIdempotent) {
  ValueDict dict;
  Relation r(MakeIntSchema("R", {"x"}), &dict);
  r.InternRow({Value(int64_t{1})});
  const Relation::Index* first = r.EnsureIndex(0b1);
  const Relation::Index* second = r.EnsureIndex(0b1);
  EXPECT_EQ(first, second);
}

TEST(DatabaseTest, RelationRegistry) {
  Database db;
  uint32_t r1 = db.AddRelation(MakeIntSchema("A", {"x"}));
  uint32_t r2 = db.AddRelation(MakeIntSchema("B", {"x"}));
  EXPECT_EQ(db.num_relations(), 2u);
  EXPECT_EQ(db.RelationIndex("A"), static_cast<int>(r1));
  EXPECT_EQ(db.RelationIndex("B"), static_cast<int>(r2));
  EXPECT_EQ(db.RelationIndex("C"), -1);
  EXPECT_NE(db.FindRelation("A"), nullptr);
  EXPECT_EQ(db.FindRelation("zzz"), nullptr);
}

TEST(DatabaseTest, CountsAndIdEnumeration) {
  Database db;
  uint32_t a = db.AddRelation(MakeIntSchema("A", {"x"}));
  db.AddRelation(MakeIntSchema("B", {"x"}));
  TupleId t1 = db.Insert(a, {Value(int64_t{1})});
  TupleId t2 = db.Insert("B", {Value(int64_t{2})});
  EXPECT_EQ(db.TotalLive(), 2u);
  EXPECT_EQ(db.LiveTupleIds(), (std::vector<TupleId>{t1, t2}));
  db.MarkDeleted(t1);
  EXPECT_EQ(db.TotalLive(), 1u);
  EXPECT_EQ(db.TotalDelta(), 1u);
  EXPECT_EQ(db.DeltaTupleIds(), (std::vector<TupleId>{t1}));
  EXPECT_EQ(db.LiveTupleIds(), (std::vector<TupleId>{t2}));
}

TEST(DatabaseTest, SaveRestoreState) {
  Database db;
  uint32_t a = db.AddRelation(MakeIntSchema("A", {"x"}));
  TupleId t1 = db.Insert(a, {Value(int64_t{1})});
  TupleId t2 = db.Insert(a, {Value(int64_t{2})});
  Database::State snap = db.SaveState();
  db.MarkDeleted(t1);
  db.SetDelta(t2);
  EXPECT_EQ(db.TotalLive(), 1u);
  db.RestoreState(snap);
  EXPECT_EQ(db.TotalLive(), 2u);
  EXPECT_EQ(db.TotalDelta(), 0u);
  EXPECT_TRUE(db.live(t1));
}

TEST(DatabaseTest, TupleRendering) {
  Database db;
  uint32_t a = db.AddRelation(MakeSchema("Grant", {"gid", "name"}, "is"));
  TupleId t = db.Insert(a, {Value(int64_t{2}), Value("ERC")});
  EXPECT_EQ(db.TupleToStr(t), "Grant(2, 'ERC')");
}

// Regression: re-inserting a previously deleted tuple used to hit the
// dedupe map, report inserted=false, and silently leave the row dead.
// It must revive the row (live again, out of the delta relation).
TEST(DatabaseTest, ReinsertingDeletedTupleRevivesIt) {
  Database db;
  uint32_t a = db.AddRelation(MakeIntSchema("A", {"x"}));
  TupleId t = db.Insert(a, {Value(int64_t{1})});
  db.MarkDeleted(t);
  ASSERT_FALSE(db.live(t));
  ASSERT_TRUE(db.delta(t));
  InsertResult r = db.InsertChecked(a, {Value(int64_t{1})});
  EXPECT_FALSE(r.inserted);  // dedupe hit, no new slot
  EXPECT_EQ(r.row, t.row);
  EXPECT_TRUE(db.live(t));    // ... but the tuple is back in R_i
  EXPECT_FALSE(db.delta(t));  // and no longer recorded as deleted
  EXPECT_EQ(db.TotalLive(), 1u);
  EXPECT_EQ(db.TotalDelta(), 0u);
}

// Regression: RestoreState used to DR_CHECK that the row count had not
// changed since SaveState, so inserting mid-run aborted the engine's
// snapshot restore. Rows grown past the snapshot are now simply
// non-live/non-delta after the restore.
TEST(DatabaseTest, RestoreStateHandlesRowsGrownPastSnapshot) {
  Database db;
  uint32_t a = db.AddRelation(MakeIntSchema("A", {"x"}));
  TupleId t1 = db.Insert(a, {Value(int64_t{1})});
  Database::State snap = db.SaveState();
  TupleId t2 = db.Insert(a, {Value(int64_t{2})});
  db.MarkDeleted(t1);
  db.RestoreState(snap);
  EXPECT_TRUE(db.live(t1));
  EXPECT_FALSE(db.live(t2));   // beyond the snapshot horizon
  EXPECT_FALSE(db.delta(t2));
  EXPECT_EQ(db.TotalLive(), 1u);
  EXPECT_EQ(db.TotalDelta(), 0u);
  // Re-inserting the grown tuple adopts its existing slot back as live.
  InsertResult r = db.InsertChecked(a, {Value(int64_t{2})});
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(r.row, t2.row);
  EXPECT_TRUE(db.live(t2));
  // ResetState revives every stored row slot.
  db.ResetState();
  EXPECT_EQ(db.TotalLive(), 2u);
}

TEST(DatabaseTest, SnapshotViewIsIsolatedFromBaseState) {
  Database db;
  uint32_t a = db.AddRelation(MakeIntSchema("A", {"x"}));
  TupleId t1 = db.Insert(a, {Value(int64_t{1})});
  TupleId t2 = db.Insert(a, {Value(int64_t{2})});
  db.MarkDeleted(t1);
  InstanceView view = db.SnapshotView();
  EXPECT_FALSE(view.live(t1));  // snapshot starts from the base state
  EXPECT_TRUE(view.live(t2));
  view.MarkDeleted(t2);
  EXPECT_TRUE(db.live(t2));  // base state untouched by the view
  EXPECT_EQ(view.TotalLive(), 0u);
  EXPECT_EQ(db.TotalLive(), 1u);
  EXPECT_EQ(&view.db(), &db);
}

TEST(DatabaseTest, CopyRebindsBaseViewToTheCopy) {
  Database db;
  uint32_t a = db.AddRelation(MakeIntSchema("A", {"x"}));
  TupleId t = db.Insert(a, {Value(int64_t{1})});
  Database copy = db;
  copy.MarkDeleted(t);
  EXPECT_TRUE(db.live(t));
  EXPECT_FALSE(copy.live(t));
  EXPECT_EQ(&copy.base_view().db(), &copy);
}

}  // namespace
}  // namespace deltarepair
