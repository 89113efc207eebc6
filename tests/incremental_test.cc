// Delta-aware incremental pipeline: realized deltas and the bounded
// version history, WAL replay coalescing, and the warm IncrementalEngine
// differentially tested against the cold (from-scratch) engine — repair
// outcomes and CQA verdicts must be identical across every semantics
// over long randomized update streams, delete-then-reinsert boundaries,
// no-op updates, and mass ground-rule retirement.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "cqa/cqa.h"
#include "relation/delta.h"
#include "repair/repair_engine.h"
#include "repair/stability.h"
#include "service/incremental_engine.h"
#include "service/wal.h"
#include "tests/test_util.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

Tuple Row(int64_t v) { return Tuple{Value(v)}; }

// ---------------------------------------------------------------------------
// Realized deltas and the bounded version history
// ---------------------------------------------------------------------------

TEST(DeltaTest, ApplyUpdateRealizesAndVersions) {
  Database db;
  uint32_t r = db.AddRelation(MakeIntSchema("R", {"x"}));
  db.Insert(r, Row(1));
  db.Insert(r, Row(2));
  EXPECT_EQ(db.version(), 0u);  // loading phase is unversioned

  // Inserting an already-live tuple realizes nothing.
  Delta noop = db.ApplyUpdate(r, true, {Row(1)});
  EXPECT_TRUE(noop.empty());
  EXPECT_EQ(db.version(), 0u);

  Delta ins = db.ApplyUpdate(r, true, {Row(3), Row(1)});
  EXPECT_EQ(ins.size(), 1u);  // only the genuinely-new row
  EXPECT_EQ(db.version(), 1u);
  EXPECT_EQ(ins.from_version, 0u);
  EXPECT_EQ(ins.to_version, 1u);

  // Deleting an absent tuple realizes nothing either.
  Delta gone = db.ApplyUpdate(r, false, {Row(99)});
  EXPECT_TRUE(gone.empty());
  EXPECT_EQ(db.version(), 1u);

  Delta del = db.ApplyUpdate(r, false, {Row(3)});
  EXPECT_EQ(del.size(), 1u);
  EXPECT_EQ(db.version(), 2u);

  // DeltaSince(0) merges the history; insert-then-delete of row 3
  // cancels, leaving an empty realized span.
  Delta since;
  ASSERT_TRUE(db.DeltaSince(0, &since));
  EXPECT_TRUE(since.empty()) << since.ToString();
  EXPECT_EQ(since.to_version, 2u);

  // An up-to-date caller gets an empty delta and true.
  ASSERT_TRUE(db.DeltaSince(2, &since));
  EXPECT_TRUE(since.empty());

  // The future is refused.
  EXPECT_FALSE(db.DeltaSince(3, &since));
}

TEST(DeltaTest, MergeFromCancelsReinsertions) {
  Database db;
  uint32_t r = db.AddRelation(MakeIntSchema("R", {"x"}));
  db.Insert(r, Row(1));
  Delta d1 = db.ApplyUpdate(r, false, {Row(1)});
  Delta d2 = db.ApplyUpdate(r, true, {Row(1)});
  ASSERT_EQ(d1.size(), 1u);
  ASSERT_EQ(d2.size(), 1u);
  d1.MergeFrom(d2);  // delete-then-reinsert: the row ends where it began
  EXPECT_TRUE(d1.empty());
  EXPECT_EQ(d1.from_version, 0u);
  EXPECT_EQ(d1.to_version, 2u);
}

TEST(DeltaTest, HistoryAgesOut) {
  Database db;
  uint32_t r = db.AddRelation(MakeIntSchema("R", {"x"}));
  // Alternate delete/insert of distinct rows to stack up realized deltas
  // beyond the bounded history.
  for (size_t i = 0; i < Database::kMaxDeltaHistory + 8; ++i) {
    db.ApplyUpdate(r, true, {Row(static_cast<int64_t>(i))});
  }
  Delta since;
  EXPECT_FALSE(db.DeltaSince(0, &since));  // aged out -> cold rebuild
  EXPECT_TRUE(db.DeltaSince(db.version() - 4, &since));
  EXPECT_EQ(since.size(), 4u);
}

// ---------------------------------------------------------------------------
// WAL replay coalescing
// ---------------------------------------------------------------------------

TEST(WalCoalesceTest, ConsecutiveRunsReplayAsOneBatch) {
  std::string path = ::testing::TempDir() + "/coalesce.drl";
  std::remove(path.c_str());
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    // Three runs: 5 single-tuple inserts, 2 deletes, 1 insert.
    for (int64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(w.Append(WalOp::kInsert, 0, 1, {Row(i)}, false).ok());
    }
    ASSERT_TRUE(w.Append(WalOp::kDelete, 0, 1, {Row(1)}, false).ok());
    ASSERT_TRUE(w.Append(WalOp::kDelete, 0, 1, {Row(3)}, false).ok());
    ASSERT_TRUE(w.Append(WalOp::kInsert, 0, 1, {Row(3)}, false).ok());
  }
  Database db;
  db.AddRelation(MakeIntSchema("R", {"x"}));
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(path, &db, &stats).ok());
  EXPECT_EQ(stats.records_applied, 8u);
  EXPECT_EQ(stats.tuples_applied, 8u);
  EXPECT_EQ(stats.batches_applied, 3u);  // coalesced per (op, relation) run
  EXPECT_EQ(stats.bytes_dropped, 0u);
  // One version bump per batch, and the replayed state matches
  // record-at-a-time semantics: {0, 2, 3, 4} live.
  EXPECT_EQ(db.version(), 3u);
  EXPECT_EQ(db.TotalLive(), 4u);
  InstanceView& view = db.base_view();
  Database reference;
  uint32_t r = reference.AddRelation(MakeIntSchema("R", {"x"}));
  for (int64_t v : {0, 2, 3, 4}) reference.Insert(r, Row(v));
  EXPECT_EQ(view.TotalLive(), reference.TotalLive());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Warm engine vs cold engine on the running example
// ---------------------------------------------------------------------------

std::vector<std::string> AllSemanticsNames() {
  return {"end", "stage", "step", "independent"};
}

RepairRequest MakeRepairRequest(const std::string& semantics) {
  RepairRequest request;
  request.semantics = semantics;
  request.options.verify_after_run = true;
  return request;
}

/// Asserts that a warm independent repair reports the CNF the cold
/// pipeline builds: the warm engine runs the same pipeline on its view of
/// the same version, so every Algorithm 1 shape counter matches.
void ExpectSameCnfShape(const RepairStats& warm, const RepairStats& cold,
                        const std::string& context) {
  EXPECT_EQ(warm.cnf_vars, cold.cnf_vars) << context;
  EXPECT_EQ(warm.cnf_clauses, cold.cnf_clauses) << context;
  EXPECT_EQ(warm.cnf_dup_clauses, cold.cnf_dup_clauses) << context;
  EXPECT_EQ(warm.cnf_subsumed_clauses, cold.cnf_subsumed_clauses)
      << context;
}

/// Asserts warm == cold for one request: identical deleted sets for the
/// deterministic semantics; for independent (minimum repairs need not be
/// unique), identical minimum size + stabilizing and the same CNF shape.
void ExpectSameOutcome(IncrementalEngine* warm, RepairEngine* cold,
                       const std::string& semantics,
                       const std::string& context) {
  RepairRequest request = MakeRepairRequest(semantics);
  RepairOutcome w = warm->ExecuteRepair(request);
  RepairOutcome c = cold->ExecuteOnSnapshot(request);
  ASSERT_TRUE(w.ok()) << semantics << " " << context;
  ASSERT_TRUE(c.ok()) << semantics << " " << context;
  ASSERT_TRUE(w.verified.has_value() && *w.verified)
      << semantics << " warm result not stabilizing " << context;
  ASSERT_TRUE(c.verified.has_value() && *c.verified)
      << semantics << " cold result not stabilizing " << context;
  if (semantics == "independent") {
    EXPECT_EQ(w.result.size(), c.result.size())
        << semantics << " minimum sizes diverge " << context;
    ExpectSameCnfShape(w.result.stats, c.result.stats,
                       semantics + " CNF shapes diverge " + context);
  } else {
    EXPECT_TRUE(w.result.SameSet(c.result))
        << semantics << " deleted sets diverge " << context;
  }
}

struct WarmFixture {
  RunningExample ex;
  std::unique_ptr<IncrementalEngine> warm;
  std::unique_ptr<RepairEngine> cold;

  explicit WarmFixture(IncrementalEngineOptions options = {}) {
    ex = MakeRunningExample();
    StatusOr<std::unique_ptr<IncrementalEngine>> w =
        IncrementalEngine::Create(&ex.db, ex.program, options);
    DR_CHECK_MSG(w.ok(), w.status().ToString());
    warm = std::move(w).value();
    StatusOr<RepairEngine> c = RepairEngine::Create(&ex.db, ex.program);
    DR_CHECK_MSG(c.ok(), c.status().ToString());
    cold = std::make_unique<RepairEngine>(std::move(c).value());
  }

  void CheckAllSemantics(const std::string& context) {
    for (const std::string& s : AllSemanticsNames()) {
      ExpectSameOutcome(warm.get(), cold.get(), s, context);
    }
  }
};

TEST(IncrementalEngineTest, EmptyDeltaKeepsEveryCache) {
  WarmFixture f;
  f.CheckAllSemantics("initial");
  uint64_t version = f.ex.db.version();

  // Re-inserting live tuples / deleting absent ones realizes nothing:
  // the version must not move and syncs must be no-ops.
  f.ex.db.ApplyUpdate(0, true, {f.ex.db.tuple(f.ex.g1)});
  f.ex.db.ApplyUpdate(4, false, {Tuple{Value(int64_t{9}),
                                       Value(int64_t{9})}});
  EXPECT_EQ(f.ex.db.version(), version);

  IncrementalEngine::Stats before = f.warm->stats();
  f.CheckAllSemantics("after no-op updates");
  IncrementalEngine::Stats after = f.warm->stats();
  EXPECT_GT(after.noop_syncs, before.noop_syncs);
  EXPECT_EQ(after.cold_rebuilds, before.cold_rebuilds);
  // Unchanged version: the deterministic results are reused, not re-run.
  EXPECT_GT(after.reused_repair_results, before.reused_repair_results);
  EXPECT_EQ(f.warm->warm_version(), f.ex.db.version());
}

TEST(IncrementalEngineTest, DeleteThenReinsertAcrossDeltaBoundary) {
  WarmFixture f;
  // Baseline repairs (all four semantics) before any update.
  std::vector<RepairOutcome> baseline;
  for (const std::string& s : AllSemanticsNames()) {
    baseline.push_back(f.warm->ExecuteRepair(MakeRepairRequest(s)));
  }

  // Delete the ERC grant row (the root cause of every cascade), sync,
  // then reinsert it in a *separate* delta. Each boundary must agree
  // with the cold engine, and the round trip must restore the baseline.
  Tuple g2 = f.ex.db.tuple(f.ex.g2);
  Delta del = f.ex.db.ApplyUpdate(0, false, {g2});
  ASSERT_EQ(del.size(), 1u);
  f.CheckAllSemantics("after deleting g2");

  Delta ins = f.ex.db.ApplyUpdate(0, true, {g2});
  ASSERT_EQ(ins.size(), 1u);
  f.CheckAllSemantics("after reinserting g2");

  for (size_t i = 0; i < baseline.size(); ++i) {
    RepairOutcome again =
        f.warm->ExecuteRepair(MakeRepairRequest(AllSemanticsNames()[i]));
    if (AllSemanticsNames()[i] == "independent") {
      EXPECT_EQ(again.result.size(), baseline[i].result.size());
    } else {
      EXPECT_TRUE(again.result.SameSet(baseline[i].result))
          << AllSemanticsNames()[i] << " not restored by reinsert";
    }
  }
  EXPECT_GT(f.warm->stats().incremental_syncs, 0u);
}

TEST(IncrementalEngineTest, WideEntailmentCapLeavesFallbackUndecided) {
  // A hub author writing six papers: one component of 7 variables with
  // minimum 1 (delete the author), so its cap has area 7 x 2 = 14. Warm
  // and cold both decide every answer on its cone slice — the whole
  // component — whose cap must obey the area bound.
  Database db;
  Program program = MakeHubAuthorInstance(&db, 6);
  Database cold_db = db;
  StatusOr<std::unique_ptr<IncrementalEngine>> warm =
      IncrementalEngine::Create(&db, program);
  ASSERT_TRUE(warm.ok());
  StatusOr<RepairEngine> cold = RepairEngine::Create(&cold_db, program);
  ASSERT_TRUE(cold.ok());

  // Below the cap's area the cap is skipped and the verdicts come back
  // undecided, not wrong.
  CqaRequest request("independent", "Q(p) :- W(x, p).");
  request.options.independent.min_ones.max_totalizer_area = 13;
  CqaResult uncapped_run = (*warm)->ExecuteCqa(request);
  ASSERT_TRUE(uncapped_run.ok());
  EXPECT_TRUE(uncapped_run.stats.space_exact);
  EXPECT_EQ(uncapped_run.stats.undecided_answers, 6u);
  for (const CqaAnswer& answer : uncapped_run.answers) {
    EXPECT_FALSE(answer.certain);
    EXPECT_TRUE(answer.possible);
  }
  CqaResult cold_uncapped = AnswerQuery(&*cold, request);
  ASSERT_TRUE(cold_uncapped.ok());
  EXPECT_EQ(cold_uncapped.stats.undecided_answers, 6u);
  EXPECT_EQ(cold_uncapped.CertainAnswers(), uncapped_run.CertainAnswers());
  EXPECT_EQ(cold_uncapped.PossibleAnswers(), uncapped_run.PossibleAnswers());

  request.options.independent.min_ones = MinOnesOptions{};
  CqaResult capped_run = (*warm)->ExecuteCqa(request);
  ASSERT_TRUE(capped_run.ok());
  EXPECT_EQ(capped_run.stats.undecided_answers, 0u);
  EXPECT_EQ(capped_run.CertainAnswers().size(), 6u);
  EXPECT_EQ((*warm)->stats().warm_cqa, 2u);
  CqaResult cold_capped = AnswerQuery(&*cold, request);
  ASSERT_TRUE(cold_capped.ok());
  EXPECT_EQ(cold_capped.stats.undecided_answers, 0u);
  EXPECT_EQ(cold_capped.CertainAnswers(), capped_run.CertainAnswers());
}

TEST(IncrementalEngineTest, WarmHubQueryDecidedAsCold) {
  // The one-answer hub query of the served MAS workload, under
  // independent: the warm space must decide exactly what the cold one
  // decides.
  MasConfig config;
  config.seed = 42;
  MasData mas = GenerateMas(config.Scaled(0.1));
  Program program = MasProgram(20, mas.hubs);
  const std::string query =
      "Q(p, t) :- Publication(p, t), Cite(c, p), p = " +
      std::to_string(mas.hubs.hub_pub_pid) + ".";
  Database cold_db = mas.db;
  StatusOr<std::unique_ptr<IncrementalEngine>> warm =
      IncrementalEngine::Create(&mas.db, program);
  ASSERT_TRUE(warm.ok());
  StatusOr<RepairEngine> cold = RepairEngine::Create(&cold_db, program);
  ASSERT_TRUE(cold.ok());

  CqaRequest request("independent", query);
  CqaResult warm_run = (*warm)->ExecuteCqa(request);
  CqaResult cold_run = AnswerQuery(&*cold, request);
  ASSERT_TRUE(warm_run.ok()) << warm_run.status.ToString();
  ASSERT_TRUE(cold_run.ok()) << cold_run.status.ToString();
  EXPECT_EQ((*warm)->stats().warm_cqa, 1u);
  EXPECT_EQ(cold_run.stats.undecided_answers, 0u);
  EXPECT_EQ(warm_run.stats.undecided_answers, 0u);
  ASSERT_EQ(warm_run.answers.size(), cold_run.answers.size());
  ASSERT_FALSE(cold_run.answers.empty());
  for (size_t i = 0; i < cold_run.answers.size(); ++i) {
    const CqaAnswer& w = warm_run.answers[i];
    const CqaAnswer& c = cold_run.answers[i];
    EXPECT_EQ(w.values, c.values) << i;
    EXPECT_EQ(w.certain, c.certain) << i;
    EXPECT_EQ(w.possible, c.possible) << i;
    EXPECT_EQ(w.certain_decided, c.certain_decided) << i;
    EXPECT_EQ(w.possible_decided, c.possible_decided) << i;
    EXPECT_EQ(w.decided, c.decided) << i;
  }
}

TEST(IncrementalEngineTest, MassRetirementKeepsSolverSound) {
  // Disable the fraction fallback so even a delta retracting every
  // ground rule of a component is maintained incrementally (the view
  // and the end fixpoint advance by the delta, never a rebuild).
  IncrementalEngineOptions options;
  options.cold_fallback_fraction = 0;  // <= 0: always incremental
  WarmFixture f(options);
  f.CheckAllSemantics("initial");
  uint64_t rebuilds = f.warm->stats().cold_rebuilds;

  // Deleting both Grant rows retracts every ground rule downstream of
  // the ERC seed — the whole cascade component goes quiet.
  Tuple g1 = f.ex.db.tuple(f.ex.g1), g2 = f.ex.db.tuple(f.ex.g2);
  f.ex.db.ApplyUpdate(0, false, {g1, g2});
  f.CheckAllSemantics("after retracting all grants");
  // With no ERC grant nothing fires: the repair must be empty.
  RepairOutcome quiet =
      f.warm->ExecuteRepair(MakeRepairRequest("independent"));
  EXPECT_EQ(quiet.result.size(), 0u);

  // Revive the component; its clauses must come back exactly once in
  // the next version's encoding.
  f.ex.db.ApplyUpdate(0, true, {g1, g2});
  f.CheckAllSemantics("after reviving all grants");

  EXPECT_EQ(f.warm->stats().cold_rebuilds, rebuilds)
      << "mass retirement must stay incremental when the fraction "
         "fallback is disabled";
}

// ---------------------------------------------------------------------------
// Randomized differential: >= 100 update steps, all four semantics,
// repair outcomes and CQA verdicts vs the cold engine after every step.
// ---------------------------------------------------------------------------

struct RandomStream {
  Database db;
  Program program;
  std::string description;
};

/// Same shape as the properties-test generator: 3 unary int relations,
/// acyclic cascades — small enough that 100+ steps of four-semantics
/// differential checking stays fast (and TSan-friendly).
RandomStream MakeRandomStream(uint64_t seed) {
  Rng rng(seed);
  RandomStream inst;
  const int num_rels = 3;
  const int domain = 5;
  for (int r = 0; r < num_rels; ++r) {
    uint32_t rel =
        inst.db.AddRelation(MakeIntSchema(StrFormat("R%d", r), {"x"}));
    int tuples = 2 + static_cast<int>(rng.NextBounded(3));
    for (int t = 0; t < tuples; ++t) {
      inst.db.Insert(rel,
                     {Value(static_cast<int64_t>(rng.NextBounded(domain)))});
    }
  }
  std::string text;
  int num_rules = 3 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < num_rules; ++i) {
    int head = static_cast<int>(rng.NextBounded(num_rels));
    switch (rng.NextBounded(3)) {
      case 0:
        text += StrFormat("~R%d(x) :- R%d(x), x <= %d.\n", head, head,
                          static_cast<int>(rng.NextBounded(domain)));
        break;
      case 1: {
        int other = static_cast<int>(rng.NextBounded(num_rels));
        const char* cmp = rng.NextBool(0.5) ? "=" : "!=";
        text += StrFormat("~R%d(x) :- R%d(x), R%d(y), x %s y.\n", head,
                          head, other, cmp);
        break;
      }
      default: {
        if (head == 0) head = 1 + static_cast<int>(rng.NextBounded(2));
        int dep =
            static_cast<int>(rng.NextBounded(static_cast<uint64_t>(head)));
        text += StrFormat("~R%d(x) :- R%d(x), ~R%d(x).\n", head, head, dep);
        break;
      }
    }
  }
  inst.program = MustParseProgram(text);
  inst.description = text;
  return inst;
}

/// One random realized update: insert a random tuple or delete a random
/// live one. Retries until the delta is non-empty (or gives up and
/// leaves the instance unchanged, which the engines must also survive).
void RandomUpdate(Database* db, Rng* rng) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    uint32_t rel = static_cast<uint32_t>(
        rng->NextBounded(db->num_relations()));
    bool insert = rng->NextBool(0.5);
    Delta delta;
    if (insert) {
      delta = db->ApplyUpdate(
          rel, true, {Row(static_cast<int64_t>(rng->NextBounded(5)))});
    } else {
      std::vector<TupleId> live = db->base_view().LiveTupleIds();
      if (live.empty()) continue;
      TupleId victim = live[rng->NextBounded(live.size())];
      delta = db->ApplyUpdate(victim.relation, false,
                              {db->tuple(victim)});
    }
    if (!delta.empty()) return;
  }
}

class IncrementalDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalDifferentialTest, WarmEqualsColdOverUpdateStream) {
  RandomStream inst =
      MakeRandomStream(static_cast<uint64_t>(GetParam()) * 131 + 7);
  StatusOr<std::unique_ptr<IncrementalEngine>> warm_or =
      IncrementalEngine::Create(&inst.db, inst.program);
  ASSERT_TRUE(warm_or.ok()) << inst.description;
  IncrementalEngine* warm = warm_or->get();
  StatusOr<RepairEngine> cold_or =
      RepairEngine::Create(&inst.db, inst.program);
  ASSERT_TRUE(cold_or.ok()) << inst.description;
  RepairEngine cold = std::move(cold_or).value();

  Rng rng(static_cast<uint64_t>(GetParam()) + 99);
  const int steps = 40;  // x3 seeds = 120 update steps total
  for (int step = 0; step < steps; ++step) {
    RandomUpdate(&inst.db, &rng);
    std::string context = StrFormat("seed %d step %d (v%llu)\nprogram:\n%s",
                                    GetParam(), step,
                                    static_cast<unsigned long long>(
                                        inst.db.version()),
                                    inst.description.c_str());

    for (const std::string& semantics : AllSemanticsNames()) {
      // Repair outcomes.
      RepairRequest request = MakeRepairRequest(semantics);
      RepairOutcome w = warm->ExecuteRepair(request);
      RepairOutcome c = cold.ExecuteOnSnapshot(request);
      ASSERT_TRUE(w.ok() && c.ok()) << semantics << " " << context;
      ASSERT_TRUE(w.verified.value_or(false))
          << semantics << " warm not stabilizing " << context
          << "\nset: " << RenderSet(inst.db, w.result.deleted);
      if (semantics == "independent") {
        ASSERT_EQ(w.result.size(), c.result.size())
            << semantics << " " << context;
        ExpectSameCnfShape(w.result.stats, c.result.stats,
                           semantics + " CNF shapes diverge " + context);
      } else {
        ASSERT_TRUE(w.result.SameSet(c.result))
            << semantics << " " << context << "\nwarm: "
            << RenderSet(inst.db, w.result.deleted)
            << "\ncold: " << RenderSet(inst.db, c.result.deleted);
      }

      // CQA verdicts over a query touching every relation.
      CqaRequest cqa(semantics, "Q(x) :- R0(x).\nQ(x) :- R1(x).\n"
                                "Q(x) :- R2(x).\n");
      CqaResult wq = warm->ExecuteCqa(cqa);
      CqaResult cq = AnswerQueryOnSnapshot(&cold, cqa);
      ASSERT_TRUE(wq.ok() && cq.ok()) << semantics << " " << context;
      EXPECT_EQ(wq.CertainAnswers(), cq.CertainAnswers())
          << semantics << " certain verdicts diverge " << context;
      EXPECT_EQ(wq.PossibleAnswers(), cq.PossibleAnswers())
          << semantics << " possible verdicts diverge " << context;
    }
    ASSERT_EQ(warm->warm_version(), inst.db.version()) << context;
  }

  // The stream must actually have exercised the warm paths.
  IncrementalEngine::Stats stats = warm->stats();
  EXPECT_GT(stats.syncs, 0u);
  EXPECT_GT(stats.incremental_syncs + stats.cold_rebuilds +
                stats.noop_syncs,
            0u);
  EXPECT_GT(stats.incremental_repairs + stats.reused_repair_results, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDifferentialTest,
                         ::testing::Range(0, 3));

}  // namespace
}  // namespace deltarepair
