// Pins the exact deleted sets of all four semantics on the paper's
// workloads. The end/stage/step digests were recorded from the engine
// before its grounding path was rewritten (flat join indexes, pointer
// bindings, dense provenance graph); any change to enumeration order,
// provenance layering or the greedy traversal that moves a single deleted
// tuple changes a digest. The independent digests hold because Min-Ones
// is deterministic: the same clauses in the same order give the same
// models, so the chosen minimum set changes only when the CNF's clauses,
// their order, or the solver's search does. The independent set is also
// checked for its size, proven optimality and stability.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/hash.h"
#include "repair/repair_engine.h"
#include "repair/stability.h"
#include "workload/mas_generator.h"
#include "workload/programs.h"
#include "workload/tpch_generator.h"

namespace deltarepair {
namespace {

/// Order-sensitive digest of a canonical (sorted) deleted set.
uint64_t Digest(const std::vector<TupleId>& deleted) {
  uint64_t h = Mix64(deleted.size());
  for (const TupleId& t : deleted) h = HashCombine(h, t.Pack());
  return h;
}

std::string Hex(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct Pinned {
  int program;
  const char* end;
  const char* stage;
  const char* step;
  const char* independent;
  size_t independent_size;
};

void CheckProgram(Database* db, Program program, const Pinned& want) {
  StatusOr<RepairEngine> engine = RepairEngine::Create(db, std::move(program));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<RepairOutcome> out = engine->RunBatch(
      {RepairRequest{"end"}, RepairRequest{"stage"}, RepairRequest{"step"},
       RepairRequest{"independent"}});
  ASSERT_EQ(out.size(), 4u);
  for (const RepairOutcome& o : out) ASSERT_TRUE(o.status.ok());
  EXPECT_EQ(Hex(Digest(out[0].result.deleted)), want.end) << "end";
  EXPECT_EQ(Hex(Digest(out[1].result.deleted)), want.stage) << "stage";
  EXPECT_EQ(Hex(Digest(out[2].result.deleted)), want.step) << "step";
  const RepairResult& ind = out[3].result;
  EXPECT_EQ(Hex(Digest(ind.deleted)), want.independent) << "independent";
  EXPECT_EQ(ind.size(), want.independent_size) << "independent";
  EXPECT_TRUE(ind.stats.optimal);
  EXPECT_TRUE(IsStabilizingSet(db, engine->program(), ind.deleted));
}

// MAS at its default size (×1: 60 orgs, 900 authors, 1800 publications).
constexpr Pinned kMas[] = {
    {1, "ae080dd5b637a0f9", "ae080dd5b637a0f9", "ae080dd5b637a0f9",
     "ae080dd5b637a0f9", 139},
    {2, "dfd629226a6972cd", "dfd629226a6972cd", "dfd629226a6972cd",
     "b269267d6290cf0b", 1},
    {3, "33169437e85f1130", "33169437e85f1130", "b269267d6290cf0b",
     "b269267d6290cf0b", 1},
    {4, "1ceade084ee2b4fd", "1ceade084ee2b4fd", "73200bd2fbf13fa7",
     "73200bd2fbf13fa7", 1},
    {5, "98b6913919fbe2ab", "98b6913919fbe2ab", "98b6913919fbe2ab",
     "98b6913919fbe2ab", 396},
    {6, "c48ba22ae6e4b28f", "98b6913919fbe2ab", "98b6913919fbe2ab",
     "98b6913919fbe2ab", 396},
    {7, "523bb5f82dee9900", "523bb5f82dee9900", "523bb5f82dee9900",
     "523bb5f82dee9900", 147},
    {8, "9fd4a3c02f6a9d86", "33169437e85f1130", "d0c2e11547da723f",
     "d0c2e11547da723f", 55},
    {9, "3b09c0a653bc204a", "3b09c0a653bc204a", "3b09c0a653bc204a",
     "3b09c0a653bc204a", 954},
    {10, "ec672955699004f2", "ec672955699004f2", "ec672955699004f2",
     "ec672955699004f2", 898},
    {11, "34e6d58376b5448a", "34e6d58376b5448a", "34e6d58376b5448a",
     "34e6d58376b5448a", 3457},
    {12, "34e6d58376b5448a", "34e6d58376b5448a", "34e6d58376b5448a",
     "bbaf2420ff51120f", 1401},
    {13, "34e6d58376b5448a", "34e6d58376b5448a", "34e6d58376b5448a",
     "4796c40c3686508d", 1401},
    {14, "34e6d58376b5448a", "34e6d58376b5448a", "34e6d58376b5448a",
     "c903f341a917fe0d", 818},
    {15, "34e6d58376b5448a", "34e6d58376b5448a", "34e6d58376b5448a",
     "1a11343868ab40d0", 60},
    {16, "73200bd2fbf13fa7", "73200bd2fbf13fa7", "73200bd2fbf13fa7",
     "73200bd2fbf13fa7", 1},
    {17, "1ceade084ee2b4fd", "1ceade084ee2b4fd", "1ceade084ee2b4fd",
     "1ceade084ee2b4fd", 99},
    {18, "d5eb74d959fd4ef3", "d5eb74d959fd4ef3", "d5eb74d959fd4ef3",
     "d5eb74d959fd4ef3", 515},
    {19, "ec672955699004f2", "ec672955699004f2", "ec672955699004f2",
     "ec672955699004f2", 898},
    {20, "011de67c73aeeff8", "011de67c73aeeff8", "011de67c73aeeff8",
     "011de67c73aeeff8", 1576},
};

// TPC-H at its default size (×1).
constexpr Pinned kTpch[] = {
    {1, "412cdf0e24b6363f", "412cdf0e24b6363f", "412cdf0e24b6363f",
     "a9324d41dcad1868", 11},
    {2, "412cdf0e24b6363f", "412cdf0e24b6363f", "412cdf0e24b6363f",
     "412cdf0e24b6363f", 395},
    {3, "412cdf0e24b6363f", "412cdf0e24b6363f", "412cdf0e24b6363f",
     "a9324d41dcad1868", 11},
    {4, "23a497b48be1bc49", "23a497b48be1bc49", "23a497b48be1bc49",
     "2b656ecee5f1e80b", 261},
    {5, "254cc561a47da479", "254cc561a47da479", "1dd589929797b1f6",
     "1dd589929797b1f6", 3},
    {6, "43a2bf2b7c04321f", "43a2bf2b7c04321f", "43a2bf2b7c04321f",
     "a4aece10d26c273a", 53},
};

class MasPinTest : public ::testing::TestWithParam<Pinned> {};

TEST_P(MasPinTest, DeletedSetsMatchRecordedDigests) {
  static const MasData mas = GenerateMas(MasConfig());
  Database db = mas.db;
  CheckProgram(&db, MasProgram(GetParam().program, mas.hubs), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Programs, MasPinTest, ::testing::ValuesIn(kMas),
                         [](const auto& info) {
                           return "mas" + std::to_string(info.param.program);
                         });

class TpchPinTest : public ::testing::TestWithParam<Pinned> {};

TEST_P(TpchPinTest, DeletedSetsMatchRecordedDigests) {
  static const TpchData tpch = GenerateTpch(TpchConfig());
  Database db = tpch.db;
  CheckProgram(&db, TpchProgram(GetParam().program, tpch.consts), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Programs, TpchPinTest, ::testing::ValuesIn(kTpch),
                         [](const auto& info) {
                           return "tpch" + std::to_string(info.param.program);
                         });

}  // namespace
}  // namespace deltarepair
