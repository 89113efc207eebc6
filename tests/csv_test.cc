// CSV import/export tests (the drepair CLI's data format).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "datalog/grounder.h"
#include "relation/csv.h"
#include "tests/test_util.h"

namespace deltarepair {
namespace {

TEST(CsvTest, LoadTypedTable) {
  Database db;
  Status st = LoadCsvIntoDatabase(&db, "Author",
                                  "aid:int,name:str,oid:int\n"
                                  "1,alice,10\n"
                                  "2,bob,11\n");
  ASSERT_TRUE(st.ok()) << st.ToString();
  const Relation* rel = db.FindRelation("Author");
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(db.live_count(0), 2u);
  EXPECT_EQ(rel->Cell(0, 0), Value(int64_t{1}));
  EXPECT_EQ(rel->Cell(0, 1), Value("alice"));
  EXPECT_EQ(rel->schema().attribute(2).type, ValueType::kInt);
}

TEST(CsvTest, DefaultsToStringType) {
  Database db;
  Status st = LoadCsvIntoDatabase(&db, "T", "a,b:int\nx,1\n");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(db.FindRelation("T")->Cell(0, 0), Value("x"));
}

TEST(CsvTest, SkipsBlankLinesAndTrimsCells) {
  Database db;
  Status st = LoadCsvIntoDatabase(&db, "T",
                                  "a:int , b:str\n"
                                  " 1 , x \n"
                                  "\n"
                                  "2,y\n\n");
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(db.live_count(0), 2u);
  EXPECT_EQ(db.FindRelation("T")->Cell(0, 1), Value("x"));
}

TEST(CsvTest, Errors) {
  Database db;
  EXPECT_FALSE(LoadCsvIntoDatabase(&db, "E1", "").ok());
  EXPECT_FALSE(LoadCsvIntoDatabase(&db, "E2", "a:float\n1\n").ok());
  EXPECT_FALSE(LoadCsvIntoDatabase(&db, "E3", "a:int\nnotanint\n").ok());
  EXPECT_FALSE(LoadCsvIntoDatabase(&db, "E4", "a:int,b:int\n1\n").ok());
  ASSERT_TRUE(LoadCsvIntoDatabase(&db, "Dup", "a:int\n1\n").ok());
  EXPECT_EQ(LoadCsvIntoDatabase(&db, "Dup", "a:int\n1\n").code(),
            StatusCode::kAlreadyExists);
}

/// CSV text of a relation with `width` int columns z0..z{width-1} and two
/// rows, all zeros except the last column: 7 in one row, 8 in the other.
std::string WideCsv(size_t width) {
  std::string header, row7, row8;
  for (size_t c = 0; c < width; ++c) {
    const bool last = c + 1 == width;
    header += (c ? ",z" : "z") + std::to_string(c) + ":int";
    row7 += std::string(c ? "," : "") + (last ? "7" : "0");
    row8 += std::string(c ? "," : "") + (last ? "8" : "0");
  }
  return header + "\n" + row7 + "\n" + row8 + "\n";
}

TEST(CsvTest, RejectsRelationsWiderThanKMaxArity) {
  Database db;
  Status st = LoadCsvIntoDatabase(&db, "R", WideCsv(kMaxArity + 1));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(db.num_relations(), 0u);  // nothing half-added
  EXPECT_EQ(db.FindRelation("R"), nullptr);
}

TEST(CsvTest, WidestRelationGroundsWithItsLastColumnBound) {
  Database db;
  ASSERT_TRUE(LoadCsvIntoDatabase(&db, "R", WideCsv(kMaxArity)).ok());
  ASSERT_TRUE(LoadCsvIntoDatabase(&db, "S", "x:int,y:int\n7,1\n").ok());
  // S (1 row) is joined first, so R (2 rows) is probed with x bound: the
  // probe mask is bit 63 alone.
  std::string r_atom = "R(";
  for (size_t c = 0; c + 1 < kMaxArity; ++c) {
    r_atom += "z" + std::to_string(c) + ", ";
  }
  r_atom += "x)";
  Program program =
      MustParseProgram("~S(x, y) :- S(x, y), " + r_atom + ".\n");
  ASSERT_TRUE(ResolveProgram(&program, db).ok());
  Grounder grounder(&db);
  std::vector<TupleId> heads;
  grounder.EnumerateRule(program.rules()[0], 0, BaseMatch::kLive,
                         DeltaMatch::kCurrent, [&](const GroundAssignment& ga) {
                           heads.push_back(ga.head);
                           return true;
                         });
  ASSERT_EQ(heads.size(), 1u);
  EXPECT_EQ(db.TupleToStr(heads[0]), "S(7, 1)");
}

TEST(CsvTest, RoundTripThroughRender) {
  Database db;
  ASSERT_TRUE(LoadCsvIntoDatabase(&db, "T",
                                  "a:int,b:str\n"
                                  "1,x\n"
                                  "2,y\n")
                  .ok());
  std::string rendered = RelationToCsv(db, 0);
  Database db2;
  ASSERT_TRUE(LoadCsvIntoDatabase(&db2, "T", rendered).ok());
  EXPECT_EQ(db2.live_count(0), 2u);
  EXPECT_EQ(db2.FindRelation("T")->Cell(1, 1), Value("y"));
}

TEST(CsvTest, RenderSkipsDeletedRows) {
  Database db;
  ASSERT_TRUE(LoadCsvIntoDatabase(&db, "T", "a:int\n1\n2\n").ok());
  db.MarkDeleted(TupleId{0, 0});
  std::string rendered = RelationToCsv(db, 0);
  EXPECT_EQ(rendered, "a:int\n2\n");
}

TEST(CsvTest, LoadCsvFileNamesRelationAfterBasename) {
  std::string path = ::testing::TempDir() + "/Writes.csv";
  {
    std::ofstream out(path);
    out << "aid:int,pid:int\n4,6\n5,7\n";
  }
  Database db;
  Status st = LoadCsvFile(&db, path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_NE(db.FindRelation("Writes"), nullptr);
  EXPECT_EQ(db.live_count(0), 2u);
  std::remove(path.c_str());
  EXPECT_EQ(LoadCsvFile(&db, "/nonexistent/nope.csv").code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace deltarepair
