// Concurrency tests for the relation-store split and the parallel
// RunBatch: parallel outcomes must be identical to the sequential path
// for all four semantics on the MAS workload, deterministic across
// repeated runs, and clean under ThreadSanitizer (the CI TSan job runs
// this suite). Also stresses the shared lazy index build directly.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "repair/repair_engine.h"
#include "repair/stability.h"
#include "tests/test_util.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

/// A small-but-nontrivial MAS instance plus the full cascade program.
struct BatchFixture {
  MasData mas;
  BatchFixture() {
    MasConfig config;
    config.num_orgs = 10;
    config.num_authors = 120;
    config.num_pubs = 240;
    mas = GenerateMas(config);
  }
};

/// The deterministic parts of an outcome (wall-clock timings excluded).
void ExpectSameOutcome(const RepairOutcome& a, const RepairOutcome& b,
                       const std::string& label) {
  EXPECT_EQ(a.ok(), b.ok()) << label;
  EXPECT_EQ(a.termination, b.termination) << label;
  EXPECT_EQ(a.result.semantics, b.result.semantics) << label;
  EXPECT_EQ(a.result.deleted, b.result.deleted) << label;
  EXPECT_EQ(a.verified, b.verified) << label;
  EXPECT_EQ(a.result.stats.assignments, b.result.stats.assignments) << label;
  EXPECT_EQ(a.result.stats.iterations, b.result.stats.iterations) << label;
  EXPECT_EQ(a.result.stats.cnf_vars, b.result.stats.cnf_vars) << label;
  EXPECT_EQ(a.result.stats.cnf_clauses, b.result.stats.cnf_clauses) << label;
  EXPECT_EQ(a.result.stats.graph_nodes, b.result.stats.graph_nodes) << label;
  EXPECT_EQ(a.result.stats.optimal, b.result.stats.optimal) << label;
}

/// The MAS sweep: every semantics twice, so the pool has more work items
/// than threads and every worker executes several requests.
std::vector<RepairRequest> SweepRequests(bool verify) {
  std::vector<RepairRequest> requests;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (const std::string& name : SemanticsRegistry::Global().Names()) {
      RepairRequest request(name);
      request.options.verify_after_run = verify;
      requests.push_back(request);
    }
  }
  return requests;
}

TEST(ParallelBatchTest, MatchesSequentialOnMasForAllSemantics) {
  BatchFixture f;
  auto engine = RepairEngine::Create(&f.mas.db, MasProgram(20, f.mas.hubs));
  ASSERT_TRUE(engine.ok());
  std::vector<RepairRequest> requests = SweepRequests(/*verify=*/true);

  std::vector<RepairOutcome> sequential = engine->RunBatch(requests, 1);
  std::vector<RepairOutcome> parallel = engine->RunBatch(requests, 4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameOutcome(sequential[i], parallel[i],
                      "request " + std::to_string(i) + " (" +
                          requests[i].semantics + ")");
    ASSERT_TRUE(parallel[i].verified.has_value());
    EXPECT_TRUE(*parallel[i].verified) << requests[i].semantics;
  }
  // The canonical state was never touched by either sweep.
  EXPECT_EQ(f.mas.db.TotalDelta(), 0u);
}

TEST(ParallelBatchTest, DeterministicAcrossRepeatedParallelRuns) {
  BatchFixture f;
  auto engine = RepairEngine::Create(&f.mas.db, MasProgram(10, f.mas.hubs));
  ASSERT_TRUE(engine.ok());
  std::vector<RepairRequest> requests = SweepRequests(/*verify=*/false);

  std::vector<RepairOutcome> first = engine->RunBatch(requests, 4);
  std::vector<RepairOutcome> second = engine->RunBatch(requests, 4);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ExpectSameOutcome(first[i], second[i], "request " + std::to_string(i));
  }
}

TEST(ParallelBatchTest, ThreadsViaRequestOptions) {
  BatchFixture f;
  auto engine = RepairEngine::Create(&f.mas.db, MasProgram(2, f.mas.hubs));
  ASSERT_TRUE(engine.ok());
  // The RepairOptions-level override: no explicit thread-count argument.
  std::vector<RepairRequest> requests = SweepRequests(/*verify=*/false);
  for (RepairRequest& request : requests) request.options.threads = 4;
  std::vector<RepairOutcome> parallel = engine->RunBatch(requests);
  std::vector<RepairOutcome> sequential = engine->RunBatch(requests, 1);
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameOutcome(sequential[i], parallel[i],
                      "request " + std::to_string(i));
  }
}

TEST(ParallelBatchTest, UnknownSemanticsInParallelBatchIsIsolated) {
  BatchFixture f;
  auto engine = RepairEngine::Create(&f.mas.db, MasProgram(2, f.mas.hubs));
  ASSERT_TRUE(engine.ok());
  std::vector<RepairRequest> requests = {
      RepairRequest("end"), RepairRequest("bogus"), RepairRequest("stage")};
  std::vector<RepairOutcome> outcomes = engine->RunBatch(requests, 4);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_EQ(outcomes[1].termination, TerminationReason::kInvalidProgram);
  EXPECT_TRUE(outcomes[2].ok());
}

// Concurrent grounders over per-thread snapshot views sharing one
// storage: the lazy index build (Relation::EnsureIndex) is the only
// shared mutation and must be race-free. Each thread deletes a different
// slice of its own view first, so membership state diverges across
// threads while rows/indexes stay shared.
TEST(ParallelBatchTest, ConcurrentGroundersShareLazyIndexes) {
  BatchFixture f;
  Program program = MasProgram(14, f.mas.hubs);  // multi-atom join chain
  ASSERT_TRUE(ResolveProgram(&program, f.mas.db).ok());

  constexpr int kThreads = 8;
  std::vector<size_t> counts(kThreads, 0);
  std::vector<std::thread> pool;
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      InstanceView view = f.mas.db.SnapshotView();
      std::vector<TupleId> live = view.LiveTupleIds();
      for (size_t i = static_cast<size_t>(w); i < live.size();
           i += 2 * kThreads) {
        view.MarkDeleted(live[i]);
      }
      Grounder grounder(&view);
      size_t n = 0;
      for (size_t i = 0; i < program.rules().size(); ++i) {
        grounder.EnumerateRule(program.rules()[i], static_cast<int>(i),
                               BaseMatch::kLive, DeltaMatch::kHypothetical,
                               [&](const GroundAssignment&) {
                                 ++n;
                                 return true;
                               });
      }
      counts[static_cast<size_t>(w)] = n;
    });
  }
  for (std::thread& t : pool) t.join();
  // Every thread saw a (different) non-trivial instance; and a fresh
  // sequential run over an undeleted view still enumerates a superset.
  InstanceView view = f.mas.db.SnapshotView();
  Grounder grounder(&view);
  size_t full = 0;
  for (size_t i = 0; i < program.rules().size(); ++i) {
    grounder.EnumerateRule(program.rules()[i], static_cast<int>(i),
                           BaseMatch::kLive, DeltaMatch::kHypothetical,
                           [&](const GroundAssignment&) {
                             ++full;
                             return true;
                           });
  }
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_GT(counts[w], 0u) << w;
    EXPECT_LE(counts[w], full) << w;
  }
}

// Parallel stability verification over thread-local views.
TEST(ParallelBatchTest, ConcurrentStabilizingSetChecks) {
  BatchFixture f;
  auto engine = RepairEngine::Create(&f.mas.db, MasProgram(9, f.mas.hubs));
  ASSERT_TRUE(engine.ok());
  RepairOutcome outcome = engine->Execute(RepairRequest("stage"));
  ASSERT_TRUE(outcome.ok());

  constexpr int kThreads = 8;
  std::vector<uint8_t> stable(kThreads, 0);
  std::vector<std::thread> pool;
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      InstanceView view = f.mas.db.SnapshotView();
      stable[static_cast<size_t>(w)] =
          IsStabilizingSet(&view, engine->program(), outcome.result.deleted)
              ? 1
              : 0;
    });
  }
  for (std::thread& t : pool) t.join();
  for (int w = 0; w < kThreads; ++w) EXPECT_EQ(stable[w], 1) << w;
}

}  // namespace
}  // namespace deltarepair
