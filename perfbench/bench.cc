#include "perfbench/bench.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <sys/stat.h>

#include "repair/stability.h"

namespace perfbench {

using deltarepair::TraceEvent;

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void RunResult::Fail(const std::string& why) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

std::string RunResult::ToJsonLine() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char num[64];
    double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  return out;
}

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::max<size_t>(1, std::min(rank, v.size()));
  return v[rank - 1];
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

uint64_t MixSeed(uint64_t base, uint64_t seed) {
  // splitmix64 finalizer over base + seed * golden ratio.
  uint64_t z = base + seed * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void CheckSemantics(deltarepair::Database* db,
                    const deltarepair::Program& program,
                    const deltarepair::RepairResult* const results[4],
                    const std::string& what, RunResult* res) {
  for (int k = 0; k < 4; ++k) {
    if (!deltarepair::IsStabilizingSet(db, program, results[k]->deleted)) {
      res->Fail(std::string(kSemantics[k]) + " result of " + what +
                " is not stabilizing");
    }
  }
  const auto& r = results;
  if (!r[1]->SubsetOf(*r[0]) || !r[2]->SubsetOf(*r[0]) ||
      r[3]->size() > r[1]->size() || r[3]->size() > r[2]->size()) {
    res->Fail(what + " violates Prop. 3.20");
  }
}

void LayerSums::AddRepair(const deltarepair::RepairStats& s, bool independent,
                          double unattributed) {
  ground_s += s.eval_seconds;
  assignments += static_cast<double>(s.assignments);
  encode_s += s.process_prov_seconds;
  cnf_clauses += static_cast<double>(s.cnf_clauses);
  minones_s += s.solve_seconds;
  minones_max_s = std::max(minones_max_s, s.solve_seconds);
  solve_calls += static_cast<double>(s.sat_solve_calls);
  conflicts += static_cast<double>(s.sat_conflicts);
  inprocess_runs += static_cast<double>(s.sat_inprocess_runs);
  eliminated_vars += static_cast<double>(s.sat_eliminated_vars);
  traverse_s += s.traverse_seconds;
  fixpoint_rounds += static_cast<double>(s.iterations);
  if (independent && !s.optimal) nonoptimal += 1;
  unattributed_s += std::max(0.0, unattributed);
}

void LayerSums::AddCqa(const deltarepair::CqaStats& s) {
  query_ground_s += s.ground_seconds;
  space_s += s.space_seconds;
  entail_s += s.entail_seconds;
  answers += static_cast<double>(s.answers);
  undecided += static_cast<double>(s.undecided_answers);
  cone_s += s.slice.cone_seconds + s.slice.slice_seconds;
  cone_clauses += static_cast<double>(s.slice.cone_clauses);
  sliced += static_cast<double>(s.slice.sliced_solve_calls);
  fallbacks += static_cast<double>(s.slice.slice_fallbacks);
  minones_s += s.repair.solve_seconds;
  minones_max_s = std::max(minones_max_s, s.repair.solve_seconds);
  solve_calls += static_cast<double>(s.repair.sat_solve_calls);
  conflicts += static_cast<double>(s.repair.sat_conflicts);
  inprocess_runs += static_cast<double>(s.repair.sat_inprocess_runs);
  eliminated_vars += static_cast<double>(s.repair.sat_eliminated_vars);
}

void AddLayerMetrics(const LayerSums& s, double per, RunResult* res) {
  res->Add("datalog.ground_s", s.ground_s * per, "s");
  res->Add("datalog.assignments", s.assignments * per, "count");
  res->Add("datalog.query_ground_s", s.query_ground_s * per, "s");
  res->Add("provenance.encode_s", s.encode_s * per, "s");
  res->Add("provenance.cnf_clauses", s.cnf_clauses * per, "count");
  res->Add("provenance.cone_s", s.cone_s * per, "s");
  res->Add("provenance.cone_clauses", s.cone_clauses * per, "count");
  res->Add("sat.minones_s", s.minones_s * per, "s");
  res->Add("sat.solve_calls", s.solve_calls * per, "count");
  res->Add("sat.conflicts", s.conflicts * per, "count");
  res->Add("sat.minones_max_s", s.minones_max_s, "s");
  res->Add("sat.nonoptimal", s.nonoptimal, "count");
  res->Add("sat.inprocess_runs", s.inprocess_runs * per, "count");
  res->Add("sat.eliminated_vars", s.eliminated_vars * per, "count");
  res->Add("repair.traverse_s", s.traverse_s * per, "s");
  res->Add("repair.fixpoint_rounds", s.fixpoint_rounds * per, "count");
  res->Add("repair.unattributed_s", s.unattributed_s * per, "s");
  res->Add("cqa.space_s", s.space_s * per, "s");
  res->Add("cqa.entail_s", s.entail_s * per, "s");
  res->Add("cqa.answers", s.answers * per, "count");
  const double judged = s.sliced + s.fallbacks;
  res->Add("cqa.sliced_frac", judged > 0 ? s.sliced / judged : 0, "ratio");
  res->Add("cqa.undecided", s.undecided, "count");
  res->Add("service.response_kb", s.response_kb * per, "KB");
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

const Json* Json::Get(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Json::Num(std::string_view key) const {
  const Json* v = Get(key);
  return v != nullptr && v->type == Type::kNumber ? v->num : 0;
}

bool Json::Bool(std::string_view key) const {
  const Json* v = Get(key);
  return v != nullptr && v->type == Type::kBool && v->b;
}

std::string Json::Str(std::string_view key) const {
  const Json* v = Get(key);
  return v != nullptr && v->type == Type::kString ? v->str : std::string();
}

namespace {

struct JsonParser {
  std::string_view s;
  size_t i = 0;

  void Ws() {
    while (i < s.size() && std::strchr(" \t\r\n", s[i]) != nullptr) ++i;
  }
  bool Lit(std::string_view lit) {
    if (s.substr(i, lit.size()) != lit) return false;
    i += lit.size();
    return true;
  }
  bool String(std::string* out) {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
      char c = s[i++];
      if (c == '\\') {
        if (i >= s.size()) return false;
        char e = s[i++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // Reports only carry ASCII control escapes; keep a marker.
            if (i + 4 > s.size()) return false;
            i += 4;
            c = '?';
            break;
          default: c = e;
        }
      }
      out->push_back(c);
    }
    if (i >= s.size()) return false;
    ++i;
    return true;
  }
  bool Value(Json* out) {
    Ws();
    if (i >= s.size()) return false;
    char c = s[i];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++i;
      Ws();
      if (i < s.size() && s[i] == '}') return ++i, true;
      for (;;) {
        Ws();
        std::string key;
        if (!String(&key)) return false;
        Ws();
        if (i >= s.size() || s[i] != ':') return false;
        ++i;
        out->fields.emplace_back(std::move(key), Json());
        if (!Value(&out->fields.back().second)) return false;
        Ws();
        if (i < s.size() && s[i] == ',') { ++i; continue; }
        if (i < s.size() && s[i] == '}') return ++i, true;
        return false;
      }
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++i;
      Ws();
      if (i < s.size() && s[i] == ']') return ++i, true;
      for (;;) {
        out->items.emplace_back();
        if (!Value(&out->items.back())) return false;
        Ws();
        if (i < s.size() && s[i] == ',') { ++i; continue; }
        if (i < s.size() && s[i] == ']') return ++i, true;
        return false;
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->str);
    }
    if (Lit("true")) { out->type = Json::Type::kBool; out->b = true; return true; }
    if (Lit("false")) { out->type = Json::Type::kBool; return true; }
    if (Lit("null")) { out->type = Json::Type::kNull; return true; }
    size_t start = i;
    while (i < s.size() && std::strchr("+-0123456789.eE", s[i]) != nullptr) {
      ++i;
    }
    if (i == start) return false;
    out->type = Json::Type::kNumber;
    out->num = std::strtod(std::string(s.substr(start, i - start)).c_str(),
                           nullptr);
    return true;
  }
};

}  // namespace

bool ParseJson(std::string_view text, Json* out) {
  JsonParser p{text};
  if (!p.Value(out)) return false;
  p.Ws();
  return p.i == text.size();
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

const char* ModuleName(int m) {
  static const char* kNames[kNumModules] = {
      "relation", "datalog", "provenance", "sat",
      "repair",   "cqa",     "service",    "unattributed"};
  return kNames[m];
}

Module ModuleOf(const char* name) {
  std::string_view n(name);
  auto starts = [&](std::string_view p) { return n.substr(0, p.size()) == p; };
  if (starts("ground.")) return kDatalog;
  if (starts("fixpoint.") || starts("repair.")) return kRepair;
  if (starts("sat.")) return kSat;
  if (starts("cone.")) return kProvenance;
  if (starts("cqa.")) return kCqa;
  if (starts("warm.") || starts("server.") || starts("wal.") ||
      starts("snapshot.")) {
    return kService;
  }
  // perfbench's spans around public calls of modules that record no span of
  // their own are charged to that module; the rest is unattributed.
  if (n == "bench.import") return kRelation;
  if (n == "bench.parse") return kDatalog;
  if (n == "bench.report") return kService;
  return kUnattributed;
}

void SpanTotals::Add(const SpanTotals& o) {
  for (int m = 0; m < kNumModules; ++m) self_s[m] += o.self_s[m];
  spans += o.spans;
  sat_solve += o.sat_solve;
  judge_answer += o.judge_answer;
  for (const auto& [k, v] : o.dur_s) dur_s[k] += v;
  for (const auto& [k, v] : o.self_by_name) self_by_name[k] += v;
}

double SpanTotals::TotalSelf() const {
  double t = 0;
  for (double v : self_s) t += v;
  return t;
}

SpanTotals AggregateSpans(const std::vector<TraceEvent>& events) {
  SpanTotals out;
  std::map<uint32_t, std::vector<const TraceEvent*>> by_thread;
  for (const TraceEvent& ev : events) by_thread[ev.tid].push_back(&ev);
  for (auto& [tid, evs] : by_thread) {
    // Parents sort before their children: earlier start, then longer.
    std::sort(evs.begin(), evs.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->start_ns != b->start_ns) {
                  return a->start_ns < b->start_ns;
                }
                return a->dur_ns > b->dur_ns;
              });
    std::vector<uint64_t> child_ns(evs.size(), 0);
    std::vector<size_t> stack;
    for (size_t i = 0; i < evs.size(); ++i) {
      const TraceEvent* e = evs[i];
      while (!stack.empty()) {
        const TraceEvent* top = evs[stack.back()];
        if (e->start_ns >= top->start_ns + top->dur_ns) {
          stack.pop_back();
        } else {
          break;
        }
      }
      if (!stack.empty()) child_ns[stack.back()] += e->dur_ns;
      stack.push_back(i);
    }
    for (size_t i = 0; i < evs.size(); ++i) {
      const TraceEvent* e = evs[i];
      const double self =
          static_cast<double>(e->dur_ns > child_ns[i] ? e->dur_ns - child_ns[i]
                                                      : 0) *
          1e-9;
      out.self_s[ModuleOf(e->name)] += self;
      ++out.spans;
      std::string_view n(e->name);
      if (n == "sat.solve") ++out.sat_solve;
      if (n == "cqa.judge_answer") ++out.judge_answer;
      if (n == "wal.append" || n == "server.request" ||
          n == "server.queue_wait" || n == "server.encode") {
        out.dur_s[e->name] += static_cast<double>(e->dur_ns) * 1e-9;
      }
      if (n == "server.execute" || n == "warm.cqa" || n == "warm.sync") {
        out.self_by_name[e->name] += self;
      }
    }
  }
  return out;
}

}  // namespace perfbench
