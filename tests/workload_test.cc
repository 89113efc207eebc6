// Workload substrate tests: generator determinism, referential integrity,
// hub selection, program library parse/resolve, and the error injector.
#include <gtest/gtest.h>

#include <unordered_set>

#include "workload/error_injector.h"
#include "workload/mas_generator.h"
#include "workload/programs.h"
#include "workload/tpch_generator.h"

namespace deltarepair {
namespace {

MasConfig SmallMas() {
  MasConfig config;
  config.num_orgs = 12;
  config.num_authors = 150;
  config.num_pubs = 300;
  config.name_pool = 30;
  return config;
}

TEST(MasGeneratorTest, DeterministicUnderSeed) {
  MasData a = GenerateMas(SmallMas());
  MasData b = GenerateMas(SmallMas());
  EXPECT_EQ(a.db.TotalLive(), b.db.TotalLive());
  EXPECT_EQ(a.hubs.hub_author_aid, b.hubs.hub_author_aid);
  EXPECT_EQ(a.hubs.common_name, b.hubs.common_name);
  MasConfig other = SmallMas();
  other.seed = 43;
  MasData c = GenerateMas(other);
  EXPECT_NE(a.db.TotalLive(), c.db.TotalLive());
}

TEST(MasGeneratorTest, ReferentialIntegrity) {
  MasData data = GenerateMas(SmallMas());
  const Relation* authors = data.db.FindRelation(kMasAuthor);
  const Relation* orgs = data.db.FindRelation(kMasOrganization);
  const Relation* writes = data.db.FindRelation(kMasWrites);
  const Relation* pubs = data.db.FindRelation(kMasPublication);
  const Relation* cites = data.db.FindRelation(kMasCite);
  ASSERT_TRUE(authors && orgs && writes && pubs && cites);

  std::unordered_set<int64_t> aids, oids, pids;
  for (uint32_t r = 0; r < orgs->num_rows(); ++r) {
    oids.insert(orgs->Cell(r, 0).AsInt());
  }
  for (uint32_t r = 0; r < authors->num_rows(); ++r) {
    aids.insert(authors->Cell(r, 0).AsInt());
    EXPECT_TRUE(oids.count(authors->Cell(r, 2).AsInt()));
  }
  for (uint32_t r = 0; r < pubs->num_rows(); ++r) {
    pids.insert(pubs->Cell(r, 0).AsInt());
  }
  for (uint32_t r = 0; r < writes->num_rows(); ++r) {
    EXPECT_TRUE(aids.count(writes->Cell(r, 0).AsInt()));
    EXPECT_TRUE(pids.count(writes->Cell(r, 1).AsInt()));
  }
  for (uint32_t r = 0; r < cites->num_rows(); ++r) {
    EXPECT_TRUE(pids.count(cites->Cell(r, 0).AsInt()));
    EXPECT_TRUE(pids.count(cites->Cell(r, 1).AsInt()));
    EXPECT_NE(cites->Cell(r, 0).AsInt(), cites->Cell(r, 1).AsInt());
  }
}

TEST(MasGeneratorTest, HubsAreMeaningful) {
  MasData data = GenerateMas(SmallMas());
  // Hub author has at least two papers (needed by programs 2-3).
  const Relation* writes = data.db.FindRelation(kMasWrites);
  size_t hub_papers = 0;
  for (uint32_t r = 0; r < writes->num_rows(); ++r) {
    if (writes->Cell(r, 0).AsInt() == data.hubs.hub_author_aid) ++hub_papers;
  }
  EXPECT_GE(hub_papers, 2u);
  // Common name names at least two authors (programs 1, 5, 6, 9).
  const Relation* authors = data.db.FindRelation(kMasAuthor);
  size_t named = 0, in_hub_org = 0;
  for (uint32_t r = 0; r < authors->num_rows(); ++r) {
    if (authors->Cell(r, 1).AsString() == data.hubs.common_name) ++named;
    if (authors->Cell(r, 2).AsInt() == data.hubs.hub_org_oid) ++in_hub_org;
  }
  EXPECT_GE(named, 2u);
  EXPECT_GE(in_hub_org, 2u);
}

TEST(MasGeneratorTest, ScaledGrowsTables) {
  MasData base = GenerateMas(SmallMas());
  MasData big = GenerateMas(SmallMas().Scaled(2.0));
  EXPECT_GT(big.db.TotalLive(), base.db.TotalLive());
}

TEST(MasProgramsTest, AllParseAndResolve) {
  MasData data = GenerateMas(SmallMas());
  for (int num : AllMasPrograms()) {
    Program program = MasProgram(num, data.hubs);
    EXPECT_GT(program.size(), 0u) << num;
    Status st = ResolveProgram(&program, data.db);
    EXPECT_TRUE(st.ok()) << "program " << num << ": " << st.ToString();
  }
  EXPECT_EQ(AllMasPrograms().size(), 20u);
}

TEST(MasProgramsTest, ChainProgramsGrow) {
  MasData data = GenerateMas(SmallMas());
  for (int num = 17; num <= 20; ++num) {
    EXPECT_EQ(MasProgram(num, data.hubs).size(),
              MasProgram(num - 1, data.hubs).size() + 1);
  }
}

TpchConfig SmallTpch() {
  TpchConfig config;
  config.num_suppliers = 40;
  config.num_customers = 120;
  config.num_parts = 100;
  config.num_orders = 200;
  return config;
}

TEST(TpchGeneratorTest, DeterministicAndConsistent) {
  TpchData a = GenerateTpch(SmallTpch());
  TpchData b = GenerateTpch(SmallTpch());
  EXPECT_EQ(a.db.TotalLive(), b.db.TotalLive());
  EXPECT_EQ(a.consts.nation_key, b.consts.nation_key);
  EXPECT_GT(a.consts.supplier_cut, 0);
  EXPECT_GT(a.consts.order_cut, 0);
}

TEST(TpchGeneratorTest, NationForT5HasFewerSuppliersThanCustomers) {
  TpchData data = GenerateTpch(SmallTpch());
  const Relation* suppliers = data.db.FindRelation(kTpchSupplier);
  const Relation* customers = data.db.FindRelation(kTpchCustomer);
  size_t s = 0, c = 0;
  for (uint32_t r = 0; r < suppliers->num_rows(); ++r) {
    if (suppliers->Cell(r, 2).AsInt() == data.consts.nation_key) ++s;
  }
  for (uint32_t r = 0; r < customers->num_rows(); ++r) {
    if (customers->Cell(r, 2).AsInt() == data.consts.nation_key) ++c;
  }
  EXPECT_GT(s, 0u);
  EXPECT_LT(s, c);
}

TEST(TpchGeneratorTest, LineitemsReferenceSuppliersOfPart) {
  TpchData data = GenerateTpch(SmallTpch());
  const Relation* ps = data.db.FindRelation(kTpchPartSupp);
  const Relation* li = data.db.FindRelation(kTpchLineitem);
  std::unordered_set<uint64_t> pairs;
  for (uint32_t r = 0; r < ps->num_rows(); ++r) {
    pairs.insert((static_cast<uint64_t>(ps->Cell(r, 0).AsInt()) << 32) |
                 static_cast<uint64_t>(ps->Cell(r, 1).AsInt()));
  }
  size_t matched = 0;
  for (uint32_t r = 0; r < li->num_rows(); ++r) {
    uint64_t key = (static_cast<uint64_t>(li->Cell(r, 1).AsInt()) << 32) |
                   static_cast<uint64_t>(li->Cell(r, 2).AsInt());
    if (pairs.count(key)) ++matched;
  }
  // The overwhelming majority of lineitems follow partsupp.
  EXPECT_GT(matched, li->num_rows() * 9 / 10);
}

TEST(TpchProgramsTest, AllParseAndResolve) {
  TpchData data = GenerateTpch(SmallTpch());
  for (int num : AllTpchPrograms()) {
    Program program = TpchProgram(num, data.consts);
    Status st = ResolveProgram(&program, data.db);
    EXPECT_TRUE(st.ok()) << "T" << num << ": " << st.ToString();
  }
}

TEST(RunningExampleTest2, MatchesFigure1) {
  RunningExample ex = MakeRunningExample();
  EXPECT_EQ(ex.db.TotalLive(), 13u);
  EXPECT_EQ(ex.program.size(), 5u);
  EXPECT_EQ(ex.db.TupleToStr(ex.g2), "Grant(2, 'ERC')");
  EXPECT_EQ(ex.db.TupleToStr(ex.a3), "Author(5, 'Homer')");
  EXPECT_EQ(ex.db.TupleToStr(ex.c), "Cite(7, 6)");
}

TEST(ErrorInjectorTest, CleanTableSatisfiesAllDcs) {
  ErrorInjectorConfig config;
  config.num_rows = 250;
  config.num_errors = 0;
  InjectedTable table = MakeInjectedAuthorTable(config);
  Database db = table.MakeDb();
  for (const auto& dc : AuthorDenialConstraints()) {
    EXPECT_EQ(CountViolations(&db, dc).assignments, 0u) << dc.name;
  }
}

TEST(ErrorInjectorTest, ErrorsCreateViolations) {
  ErrorInjectorConfig config;
  config.num_rows = 250;
  config.num_errors = 25;
  InjectedTable table = MakeInjectedAuthorTable(config);
  EXPECT_EQ(table.errors.size(), 25u);
  // Errors touch distinct rows.
  std::unordered_set<size_t> rows;
  for (const auto& e : table.errors) rows.insert(e.row);
  EXPECT_EQ(rows.size(), 25u);
  // Each corrupted cell differs from its clean value.
  for (const auto& e : table.errors) {
    EXPECT_NE(table.rows[e.row][e.column], e.clean_value);
    EXPECT_EQ(table.clean_rows[e.row][e.column], e.clean_value);
  }
  Database db = table.MakeDb();
  size_t total = 0;
  for (const auto& dc : AuthorDenialConstraints()) {
    total += CountViolations(&db, dc).assignments;
  }
  EXPECT_GT(total, 0u);
}

TEST(ErrorInjectorTest, DeterministicUnderSeed) {
  ErrorInjectorConfig config;
  config.num_rows = 100;
  config.num_errors = 10;
  InjectedTable a = MakeInjectedAuthorTable(config);
  InjectedTable b = MakeInjectedAuthorTable(config);
  EXPECT_EQ(a.rows, b.rows);
  config.seed += 1;
  InjectedTable c = MakeInjectedAuthorTable(config);
  EXPECT_NE(a.rows, c.rows);
}

}  // namespace
}  // namespace deltarepair
