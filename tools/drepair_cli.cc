// drepair — command-line declarative repair and consistent query
// answering over CSV data.
//
// Usage:
//   drepair --data <dir> --program <file> [--semantics <name>] [--apply]
//           [--out <dir>] [--show <n>] [--verify] [--budget-ms <n>]
//           [--seed <n>] [--json <path>] [--threads <n>]
//           [--query <file-or-text>] [--certain] [--possible]
//           [--annotate] [--trace-out <path>]
//
//   --data       directory of <Relation>.csv files; first line is the
//                schema, e.g. "aid:int,name:str,oid:int"
//   --program    delta-rule file, e.g.
//                  ~Author(a, n, o) :- Author(a, n, o), n = 'ERC'.
//                  ~Writes(a, p) :- Writes(a, p), ~Author(a, n, o).
//   --semantics  end | stage | step | independent | all   (default: all)
//   --apply      apply the repair (with --out, write repaired CSVs);
//                requires a single --semantics, not "all"
//   --show n     print up to n deleted tuples / answers per semantics
//                (default 10)
//   --verify     re-check that the result is a stabilizing set
//   --budget-ms  wall-clock budget per semantics run, in milliseconds;
//                budget-exhausted runs report termination
//                "budget_exhausted" and still return a stabilizing set
//                (repair mode) / conservative verdicts (query mode)
//   --seed       RNG seed forwarded to randomized strategies
//   --json       write a machine-readable report of every run to <path>
//   --threads    worker threads for the batch of runs (default 1 =
//                sequential); results are identical either way
//
// Query mode (consistent query answering) — instead of reporting the
// repairs themselves, report which query answers survive them:
//   --query      a UCQ, inline or a file path, e.g.
//                  Q(a, n) :- Author(a, n, o), Writes(a, p).
//                Runs CQA against each selected semantics' repair space.
//   --certain    only compute certain answers (in every repair)
//   --possible   only compute possible answers (in some repair)
//                (default: both; flags restrict to save solver calls)
//   --annotate   attach a minimal counterexample deletion set to every
//                non-certain answer
//
//   --trace-out  enable in-process span tracing for the whole run and
//                write the recorded spans to <path> as Chrome
//                trace_event JSON (load in chrome://tracing or
//                ui.perfetto.dev)
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/json_writer.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "cqa/cqa.h"
#include "obs/trace.h"
#include "datalog/parser.h"
#include "relation/csv.h"
#include "repair/repair_engine.h"
#include "repair/stability.h"
#include "service/report.h"
#include "service/request_codec.h"

namespace fs = std::filesystem;
using namespace deltarepair;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --data <dir> --program <file> "
               "[--semantics end|stage|step|independent|all] [--apply] "
               "[--out <dir>] [--show <n>] [--verify] [--budget-ms <n>] "
               "[--seed <n>] [--json <path>] [--threads <n>] "
               "[--query <file-or-text>] [--certain] [--possible] "
               "[--annotate] [--trace-out <path>]\n",
               argv0);
  return 2;
}

/// Strict non-negative integer parse; rejects empty, sign, trailing
/// garbage, and overflow (std::atoll silently accepted all of those).
bool ParseUint(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  for (const char* p = s; *p; ++p) {
    if (!std::isdigit(static_cast<unsigned char>(*p))) return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

void PrintResult(Database& db, const RepairOutcome& outcome, size_t show) {
  const RepairResult& result = outcome.result;
  std::printf("%-12s: %zu tuples deleted", SemanticsName(result.semantics),
              result.size());
  if (!result.deleted.empty()) {
    std::printf(" (%s)", result.BreakdownByRelation(db).c_str());
  }
  std::printf("  [%.1fms, %s%s]\n", result.stats.total_seconds * 1e3,
              TerminationReasonName(outcome.termination),
              result.semantics == SemanticsKind::kIndependent
                  ? (result.stats.optimal ? ", provably minimum"
                                          : ", anytime cutoff")
                  : "");
  for (size_t i = 0; i < result.deleted.size() && i < show; ++i) {
    std::printf("    - %s\n", db.TupleToStr(result.deleted[i]).c_str());
  }
  if (result.deleted.size() > show) {
    std::printf("    ... and %zu more\n", result.deleted.size() - show);
  }
}

void PrintCqaResult(Database& db, const CqaResult& result, size_t show,
                    bool annotate) {
  const CqaStats& stats = result.stats;
  std::printf("%-12s: %zu answers, %llu certain, %llu possible",
              result.semantics.c_str(), result.answers.size(),
              static_cast<unsigned long long>(stats.certain_answers),
              static_cast<unsigned long long>(stats.possible_answers));
  if (stats.undecided_answers > 0) {
    std::printf(", %llu undecided",
                static_cast<unsigned long long>(stats.undecided_answers));
  }
  if (!stats.space_exact) {
    std::printf("  [%.1fms, %s, space truncated]",
                stats.total_seconds * 1e3,
                TerminationReasonName(result.termination));
  } else if (stats.space_repairs > 0) {
    std::printf("  [%.1fms, %s, %llu repairs x %u deletions]",
                stats.total_seconds * 1e3,
                TerminationReasonName(result.termination),
                static_cast<unsigned long long>(stats.space_repairs),
                stats.repair_size);
  } else {
    std::printf("  [%.1fms, %s, symbolic space, %u deletions]",
                stats.total_seconds * 1e3,
                TerminationReasonName(result.termination),
                stats.repair_size);
  }
  std::printf("\n");
  for (size_t i = 0; i < result.answers.size() && i < show; ++i) {
    const CqaAnswer& answer = result.answers[i];
    std::printf("    %s %s  %s", answer.certain ? "+" : "-",
                TupleToString(answer.values).c_str(),
                CqaVerdictLabel(answer));
    if (annotate && !answer.counterexample.empty()) {
      std::printf("  killed by {");
      for (size_t t = 0; t < answer.counterexample.size(); ++t) {
        if (t) std::printf(", ");
        std::printf("%s", db.TupleToStr(answer.counterexample[t]).c_str());
      }
      std::printf("}%s", answer.counterexample_minimal ? "" : " (anytime)");
    }
    std::printf("\n");
  }
  if (result.answers.size() > show) {
    std::printf("    ... and %zu more\n", result.answers.size() - show);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string data_dir, program_path, out_dir, json_path, query_arg;
  std::string trace_out;
  std::string semantics_name = "all";
  bool apply = false, verify = false;
  bool only_certain = false, only_possible = false, annotate = false;
  size_t show = 10;
  uint64_t budget_ms = 0, seed = 0, threads = 1;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--data") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      data_dir = v;
    } else if (arg == "--program") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      program_path = v;
    } else if (arg == "--semantics") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      semantics_name = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      out_dir = v;
    } else if (arg == "--json") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      json_path = v;
    } else if (arg == "--show") {
      const char* v = next();
      uint64_t n = 0;
      if (!v || !ParseUint(v, &n)) {
        std::fprintf(stderr, "--show expects a non-negative integer, got"
                             " '%s'\n", v ? v : "");
        return Usage(argv[0]);
      }
      show = static_cast<size_t>(n);
    } else if (arg == "--budget-ms") {
      const char* v = next();
      if (!v || !ParseUint(v, &budget_ms)) {
        std::fprintf(stderr, "--budget-ms expects a non-negative integer,"
                             " got '%s'\n", v ? v : "");
        return Usage(argv[0]);
      }
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v || !ParseUint(v, &seed)) {
        std::fprintf(stderr, "--seed expects a non-negative integer, got"
                             " '%s'\n", v ? v : "");
        return Usage(argv[0]);
      }
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v || !ParseUint(v, &threads) || threads == 0 ||
          threads > 1024) {
        std::fprintf(stderr, "--threads expects an integer in [1, 1024],"
                             " got '%s'\n", v ? v : "");
        return Usage(argv[0]);
      }
    } else if (arg == "--query") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      query_arg = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      trace_out = v;
    } else if (arg == "--certain") {
      only_certain = true;
    } else if (arg == "--possible") {
      only_possible = true;
    } else if (arg == "--annotate") {
      annotate = true;
    } else if (arg == "--apply") {
      apply = true;
    } else if (arg == "--verify") {
      verify = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (data_dir.empty() || program_path.empty()) return Usage(argv[0]);

  if (!trace_out.empty()) Trace::Enable(true);
  // Dumps whatever was recorded on every exit path once tracing is on,
  // and says so when the per-thread rings lost spans.
  struct TraceDump {
    std::string path;
    ~TraceDump() {
      if (path.empty()) return;
      TraceLoss loss;
      std::vector<TraceEvent> events = Trace::Collect(&loss);
      if (loss.overwritten != 0 || loss.torn != 0) {
        std::fprintf(stderr,
                     "warning: trace lost spans: %llu overwritten by a "
                     "wrapped ring, %llu torn\n",
                     static_cast<unsigned long long>(loss.overwritten),
                     static_cast<unsigned long long>(loss.torn));
      }
      if (!WriteFileOrWarn(path, Trace::ChromeJson(events, loss))) return;
      std::printf("trace written to %s\n", path.c_str());
    }
  } trace_dump{trace_out};

  // One request per selected semantics, validated against the registry.
  std::vector<RepairRequest> requests;
  {
    RepairOptions options;
    options.budget_seconds = static_cast<double>(budget_ms) / 1e3;
    options.seed = seed;
    options.verify_after_run = verify;
    options.threads = static_cast<int>(threads);
    std::vector<std::string> names;
    if (semantics_name == "all") {
      names = SemanticsRegistry::Global().Names();
    } else {
      names = {semantics_name};
    }
    for (const std::string& name : names) {
      RepairRequest request;
      request.semantics = name;
      request.options = options;
      // Same strict validation the server applies to wire requests.
      Status st = ValidateRepairRequest(request);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return Usage(argv[0]);
      }
      requests.push_back(request);
    }
  }
  if (apply && requests.size() != 1) {
    std::fprintf(stderr,
                 "--apply with --semantics all is ambiguous (which repair "
                 "would be kept?); pick one semantics\n");
    return Usage(argv[0]);
  }
  if (!query_arg.empty() && apply) {
    std::fprintf(stderr,
                 "--query answers over the space of repairs; it never "
                 "applies one (drop --apply)\n");
    return Usage(argv[0]);
  }
  if (!query_arg.empty() && verify) {
    std::fprintf(stderr,
                 "--verify re-checks a repair result; query mode has "
                 "none (drop --verify)\n");
    return Usage(argv[0]);
  }
  if (query_arg.empty() && (only_certain || only_possible || annotate)) {
    std::fprintf(stderr,
                 "--certain/--possible/--annotate require --query\n");
    return Usage(argv[0]);
  }

  // Load every CSV in the data directory.
  WallTimer import_timer;
  Database db;
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(data_dir, ec)) {
    if (entry.path().extension() == ".csv") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    std::fprintf(stderr, "cannot read %s: %s\n", data_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::sort(files.begin(), files.end());
  for (const std::string& path : files) {
    Status st = LoadCsvFile(&db, path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), st.ToString().c_str());
      return 1;
    }
  }
  if (db.num_relations() == 0) {
    std::fprintf(stderr, "no .csv files found in %s\n", data_dir.c_str());
    return 1;
  }
  const double import_seconds = import_timer.ElapsedSeconds();
  std::printf("loaded %zu relations, %zu tuples in %.1fms\n",
              db.num_relations(), db.TotalLive(), import_seconds * 1e3);

  // Parse the program.
  WallTimer parse_timer;
  std::ifstream in(program_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", program_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  StatusOr<Program> program = ParseProgram(buffer.str());
  if (!program.ok()) {
    std::fprintf(stderr, "program: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }
  StatusOr<RepairEngine> engine =
      RepairEngine::Create(&db, std::move(program).value());
  if (!engine.ok()) {
    std::fprintf(stderr, "program: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  const double parse_seconds = parse_timer.ElapsedSeconds();
  bool stable_before = IsStable(&db, engine->program());
  std::printf("database stable: %s\n\n", stable_before ? "yes" : "no");

  // Query mode: consistent query answering over each selected
  // semantics' repair space instead of the repair sweep.
  if (!query_arg.empty()) {
    std::string query_text = query_arg;
    std::error_code query_ec;
    if (fs::is_regular_file(query_arg, query_ec)) {
      std::ifstream qin(query_arg);
      std::stringstream qbuf;
      qbuf << qin.rdbuf();
      query_text = qbuf.str();
    }
    std::vector<CqaRequest> cqa_requests;
    for (const RepairRequest& request : requests) {
      CqaRequest cqa(request.semantics, query_text);
      cqa.options = request.options;
      cqa.certain = !only_possible || only_certain;
      cqa.possible = !only_certain || only_possible;
      cqa.annotate = annotate;
      Status st = ValidateCqaRequest(cqa);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      cqa_requests.push_back(std::move(cqa));
    }
    std::vector<CqaResult> results =
        AnswerQueryBatch(&engine.value(), cqa_requests);
    for (const CqaResult& result : results) {
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status.ToString().c_str());
        return 1;
      }
      PrintCqaResult(db, result, show, annotate);
    }
    if (!json_path.empty()) {
      JsonWriter json;
      json.BeginObject();
      json.Field("tool", "drepair");
      json.Field("mode", "cqa");
      json.Field("data", data_dir);
      json.Field("program", program_path);
      json.Field("query", query_text);
      json.Field("budget_ms", budget_ms);
      json.Field("seed", seed);
      json.Field("threads", threads);
      json.Field("stable_before", stable_before);
      // Startup cost, reported apart from the per-result solve times.
      json.Field("import_seconds", import_seconds);
      json.Field("parse_seconds", parse_seconds);
      json.Key("results").BeginArray();
      for (const CqaResult& result : results) {
        WriteCqaResultJson(json, db, result);
      }
      json.EndArray();
      json.EndObject();
      if (!WriteFileOrWarn(json_path, json.str())) return 1;
      std::printf("\nJSON report written to %s\n", json_path.c_str());
    }
    return 0;
  }

  std::vector<RepairOutcome> outcomes;
  if (apply) {
    requests[0].apply = true;
    outcomes.push_back(engine->Execute(requests[0]));
  } else {
    outcomes = engine->RunBatch(requests);
  }

  bool verify_failed = false;
  for (const RepairOutcome& outcome : outcomes) {
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s\n", outcome.status.ToString().c_str());
      return 1;
    }
    PrintResult(db, outcome, show);
    if (outcome.verified.has_value()) {
      std::printf("    verified stabilizing: %s\n",
                  *outcome.verified ? "yes" : "NO");
      if (!*outcome.verified) verify_failed = true;
    }
  }

  if (!json_path.empty()) {
    JsonWriter json;
    json.BeginObject();
    json.Field("tool", "drepair");
    json.Field("data", data_dir);
    json.Field("program", program_path);
    json.Field("budget_ms", budget_ms);
    json.Field("seed", seed);
    json.Field("threads", threads);
    json.Field("stable_before", stable_before);
    // Startup cost, reported apart from the per-result solve times.
    json.Field("import_seconds", import_seconds);
    json.Field("parse_seconds", parse_seconds);
    json.Key("results").BeginArray();
    for (const RepairOutcome& outcome : outcomes) {
      WriteOutcomeJson(json, db, outcome, apply);
    }
    json.EndArray();
    json.EndObject();
    if (!WriteFileOrWarn(json_path, json.str())) return 1;
    std::printf("\nJSON report written to %s\n", json_path.c_str());
  }
  if (verify_failed) return 1;

  if (apply && !out_dir.empty()) {
    fs::create_directories(out_dir, ec);
    for (uint32_t r = 0; r < db.num_relations(); ++r) {
      const Relation& rel = db.relation(r);
      std::ofstream out(out_dir + "/" + rel.name() + ".csv");
      out << RelationToCsv(db, r);
    }
    std::printf("\nrepaired CSVs written to %s (semantics: %s)\n",
                out_dir.c_str(), requests[0].semantics.c_str());
  }
  return 0;
}
