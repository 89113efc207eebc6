// Tests for the HoloClean-style cell-repair baseline: detection, repair of
// FD-style errors toward ground truth, under-repair at high error density,
// and the never-deletes-tuples contract.
#include <gtest/gtest.h>

#include "holoclean/holoclean.h"
#include "workload/error_injector.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

size_t TotalViolations(Database* db,
                       const std::vector<DenialConstraint>& dcs) {
  size_t total = 0;
  for (const auto& dc : dcs) total += CountViolations(db, dc).violating_tuples;
  return total;
}

TEST(HoloCleanTest, CleanTableUntouched) {
  ErrorInjectorConfig config;
  config.num_rows = 300;
  config.num_errors = 0;
  InjectedTable table = MakeInjectedAuthorTable(config);
  Database db = table.MakeDb();
  HoloCleanReport report =
      RunHoloClean(&db, "Author", AuthorDenialConstraints());
  EXPECT_EQ(report.noisy_cells, 0u);
  EXPECT_EQ(report.repaired_cells, 0u);
  EXPECT_EQ(report.rows.size(), 300u);
  EXPECT_EQ(report.rows, table.clean_rows);
}

TEST(HoloCleanTest, DetectsInjectedViolations) {
  ErrorInjectorConfig config;
  config.num_rows = 400;
  config.num_errors = 20;
  InjectedTable table = MakeInjectedAuthorTable(config);
  Database db = table.MakeDb();
  std::vector<DenialConstraint> dcs = AuthorDenialConstraints();
  ASSERT_GT(TotalViolations(&db, dcs), 0u);
  HoloCleanReport report = RunHoloClean(&db, "Author", dcs);
  EXPECT_GT(report.noisy_cells, 0u);
}

TEST(HoloCleanTest, RepairsOrgNameErrorsTowardGroundTruth) {
  // Inject only a handful of errors into a large table: the FD-style
  // organization-name corruptions have strong co-occurrence signal and
  // should be repaired back to the clean value.
  ErrorInjectorConfig config;
  config.num_rows = 600;
  config.num_errors = 12;
  config.seed = 99;
  InjectedTable table = MakeInjectedAuthorTable(config);
  Database db = table.MakeDb();
  std::vector<DenialConstraint> dcs = AuthorDenialConstraints();
  size_t before = TotalViolations(&db, dcs);
  HoloCleanReport report = RunHoloClean(&db, "Author", dcs);
  Database repaired = MakeSingleTableDb(table.schema, report.rows);
  size_t after = TotalViolations(&repaired, dcs);
  EXPECT_LT(after, before);
  // Count orgname errors actually restored to ground truth.
  size_t orgname_errors = 0, orgname_fixed = 0;
  for (const InjectedCell& e : table.errors) {
    if (e.column != kAuthorOrgName) continue;
    ++orgname_errors;
    if (report.rows[e.row][e.column] == e.clean_value) ++orgname_fixed;
  }
  if (orgname_errors > 0) {
    EXPECT_GT(orgname_fixed, 0u);
  }
}

TEST(HoloCleanTest, UnderRepairsAtHighErrorDensity) {
  ErrorInjectorConfig config;
  config.num_rows = 800;
  config.num_errors = 400;  // dense corruption pollutes the statistics
  InjectedTable table = MakeInjectedAuthorTable(config);
  Database db = table.MakeDb();
  HoloCleanReport report =
      RunHoloClean(&db, "Author", AuthorDenialConstraints());
  // HoloClean-style inference cannot confidently fix everything: count
  // the injected errors actually restored to ground truth (the paper's
  // Table 4 under-repair observation).
  size_t restored = 0;
  for (const InjectedCell& e : table.errors) {
    if (report.rows[e.row][e.column] == e.clean_value) ++restored;
  }
  EXPECT_LT(restored, config.num_errors);
  // Residual violations remain (the paper's Table 5 observation).
  Database repaired = MakeSingleTableDb(table.schema, report.rows);
  EXPECT_GT(TotalViolations(&repaired, AuthorDenialConstraints()), 0u);
}

TEST(HoloCleanTest, NeverDeletesRows) {
  ErrorInjectorConfig config;
  config.num_rows = 200;
  config.num_errors = 50;
  InjectedTable table = MakeInjectedAuthorTable(config);
  Database db = table.MakeDb();
  HoloCleanReport report =
      RunHoloClean(&db, "Author", AuthorDenialConstraints());
  EXPECT_EQ(report.rows.size(), config.num_rows);
  // The source database itself is untouched.
  EXPECT_EQ(db.TotalLive(), config.num_rows);
  EXPECT_EQ(db.TotalDelta(), 0u);
}

TEST(HoloCleanTest, ReportsPhaseTimings) {
  ErrorInjectorConfig config;
  config.num_rows = 300;
  config.num_errors = 30;
  InjectedTable table = MakeInjectedAuthorTable(config);
  Database db = table.MakeDb();
  HoloCleanReport report =
      RunHoloClean(&db, "Author", AuthorDenialConstraints());
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_GE(report.detect_seconds, 0.0);
  EXPECT_GE(report.infer_seconds, 0.0);
}

TEST(MakeSingleTableDbTest, RoundTrips) {
  RelationSchema schema = MakeSchema("T", {"a", "b"}, "is");
  std::vector<Tuple> rows = {{Value(int64_t{1}), Value("x")},
                             {Value(int64_t{2}), Value("y")}};
  Database db = MakeSingleTableDb(schema, rows);
  EXPECT_EQ(db.TotalLive(), 2u);
  EXPECT_EQ(db.FindRelation("T")->Cell(0, 1), Value("x"));
}

}  // namespace
}  // namespace deltarepair
