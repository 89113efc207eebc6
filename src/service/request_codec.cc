#include "service/request_codec.h"

#include <cmath>

#include "common/framing.h"
#include "common/string_util.h"
#include "repair/semantics_registry.h"
#include "service/cell_codec.h"

namespace deltarepair {

namespace {

// Version 2 appends a u64 trace id to repair/cqa requests; version 3
// drops the Min-Ones inprocessing byte and portfolio u32 from the
// options. Version-1 and -2 frames still decode, so old clients keep
// working.
constexpr uint8_t kCodecVersion = 3;
constexpr uint8_t kMinCodecVersion = 1;
constexpr size_t kMaxSemanticsLen = 64;
constexpr size_t kMaxQueryLen = 1u << 20;
constexpr size_t kMaxRelationNameLen = 256;
constexpr uint32_t kMaxUpdateTuples = 1u << 22;
constexpr int kMaxThreads = 1024;

Status ValidateOptions(const RepairOptions& o, const char* what) {
  if (!std::isfinite(o.budget_seconds) || o.budget_seconds < 0) {
    return Status::InvalidArgument(
        StrFormat("%s: budget_seconds must be finite and >= 0", what));
  }
  if (o.threads < 0 || o.threads > kMaxThreads) {
    return Status::InvalidArgument(
        StrFormat("%s: threads must be in [0, %d]", what, kMaxThreads));
  }
  const MinOnesOptions& m = o.independent.min_ones;
  if (!std::isfinite(m.time_limit_seconds) || m.time_limit_seconds < 0) {
    return Status::InvalidArgument(StrFormat(
        "%s: min_ones.time_limit_seconds must be finite and >= 0", what));
  }
  if (o.step.ordering != StepOrdering::kMaxBenefit &&
      o.step.ordering != StepOrdering::kArbitrary) {
    return Status::InvalidArgument(
        StrFormat("%s: unknown step ordering", what));
  }
  return Status::OK();
}

Status ValidateSemanticsName(const std::string& name, const char* what) {
  if (name.empty() || name.size() > kMaxSemanticsLen) {
    return Status::InvalidArgument(
        StrFormat("%s: semantics name must be 1..%zu chars", what,
                  kMaxSemanticsLen));
  }
  StatusOr<const Semantics*> s = SemanticsRegistry::Global().Get(name);
  if (!s.ok()) return s.status();
  return Status::OK();
}

void PutOptions(BinaryWriter* w, const RepairOptions& o) {
  w->PutDouble(o.budget_seconds);
  w->PutU64(o.seed);
  w->PutU8(o.verify_after_run ? 1 : 0);
  w->PutU32(static_cast<uint32_t>(o.threads));
  w->PutU8(static_cast<uint8_t>(o.step.ordering));
  const MinOnesOptions& m = o.independent.min_ones;
  w->PutU64(m.max_assignments);
  w->PutDouble(m.time_limit_seconds);
  w->PutU8(m.decompose_components ? 1 : 0);
  w->PutU8(m.enable_learning ? 1 : 0);
  w->PutU8(m.enable_restarts ? 1 : 0);
  w->PutU64(m.max_totalizer_area);
}

Status GetOptions(BinaryReader* r, uint8_t version, RepairOptions* o) {
  uint8_t verify, ordering, decompose, learning, restarts;
  uint8_t inprocess = 0;
  uint32_t threads, portfolio = 1;
  MinOnesOptions& m = o->independent.min_ones;
  DR_RETURN_IF_ERROR(r->GetDouble(&o->budget_seconds));
  DR_RETURN_IF_ERROR(r->GetU64(&o->seed));
  DR_RETURN_IF_ERROR(r->GetU8(&verify));
  DR_RETURN_IF_ERROR(r->GetU32(&threads));
  DR_RETURN_IF_ERROR(r->GetU8(&ordering));
  DR_RETURN_IF_ERROR(r->GetU64(&m.max_assignments));
  DR_RETURN_IF_ERROR(r->GetDouble(&m.time_limit_seconds));
  DR_RETURN_IF_ERROR(r->GetU8(&decompose));
  DR_RETURN_IF_ERROR(r->GetU8(&learning));
  DR_RETURN_IF_ERROR(r->GetU8(&restarts));
  DR_RETURN_IF_ERROR(r->GetU64(&m.max_totalizer_area));
  if (version < 3) {
    // v1/v2 carry the retired inprocessing flag and portfolio thread
    // count: still validated (they are untrusted bytes), then dropped.
    DR_RETURN_IF_ERROR(r->GetU8(&inprocess));
    DR_RETURN_IF_ERROR(r->GetU32(&portfolio));
  }
  if (verify > 1 || decompose > 1 || learning > 1 || restarts > 1 ||
      inprocess > 1) {
    return Status::InvalidArgument("options: flag byte must be 0 or 1");
  }
  if (ordering > static_cast<uint8_t>(StepOrdering::kArbitrary)) {
    return Status::InvalidArgument("options: unknown step ordering");
  }
  if (threads > static_cast<uint32_t>(kMaxThreads) ||
      portfolio > static_cast<uint32_t>(kMaxThreads)) {
    return Status::InvalidArgument(
        StrFormat("options: thread counts must be <= %d", kMaxThreads));
  }
  o->verify_after_run = verify != 0;
  o->threads = static_cast<int>(threads);
  o->step.ordering = static_cast<StepOrdering>(ordering);
  m.decompose_components = decompose != 0;
  m.enable_learning = learning != 0;
  m.enable_restarts = restarts != 0;
  // Process-local fields never travel.
  o->cancel = nullptr;
  o->record_provenance = nullptr;
  return Status::OK();
}

}  // namespace

Status ValidateRepairRequest(const RepairRequest& request) {
  DR_RETURN_IF_ERROR(
      ValidateSemanticsName(request.semantics, "repair request"));
  return ValidateOptions(request.options, "repair request");
}

Status ValidateCqaRequest(const CqaRequest& request) {
  DR_RETURN_IF_ERROR(ValidateSemanticsName(request.semantics,
                                           "cqa request"));
  if (request.query.empty() || request.query.size() > kMaxQueryLen) {
    return Status::InvalidArgument(
        StrFormat("cqa request: query text must be 1..%zu bytes",
                  kMaxQueryLen));
  }
  if (!request.certain && !request.possible && !request.annotate) {
    return Status::InvalidArgument(
        "cqa request: at least one of certain/possible/annotate");
  }
  return ValidateOptions(request.options, "cqa request");
}

std::string EncodeRepairRequest(const RepairRequest& request) {
  BinaryWriter w;
  w.PutU8(kCodecVersion);
  w.PutString(request.semantics);
  w.PutU8(request.apply ? 1 : 0);
  PutOptions(&w, request.options);
  w.PutU64(request.trace_id);
  return w.Take();
}

Status DecodeRepairRequest(std::string_view bytes, RepairRequest* out) {
  BinaryReader r(bytes);
  uint8_t version, apply;
  DR_RETURN_IF_ERROR(r.GetU8(&version));
  if (version < kMinCodecVersion || version > kCodecVersion) {
    return Status::InvalidArgument(
        StrFormat("repair request: unsupported version %u",
                  static_cast<unsigned>(version)));
  }
  RepairRequest req;
  DR_RETURN_IF_ERROR(r.GetString(&req.semantics));
  DR_RETURN_IF_ERROR(r.GetU8(&apply));
  if (apply > 1) {
    return Status::InvalidArgument(
        "repair request: apply byte must be 0 or 1");
  }
  req.apply = apply != 0;
  DR_RETURN_IF_ERROR(GetOptions(&r, version, &req.options));
  if (version >= 2) {
    DR_RETURN_IF_ERROR(r.GetU64(&req.trace_id));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        StrFormat("repair request: %zu trailing bytes", r.remaining()));
  }
  DR_RETURN_IF_ERROR(ValidateRepairRequest(req));
  *out = std::move(req);
  return Status::OK();
}

std::string EncodeCqaRequest(const CqaRequest& request) {
  BinaryWriter w;
  w.PutU8(kCodecVersion);
  w.PutString(request.semantics);
  w.PutString(request.query);
  w.PutU8(request.certain ? 1 : 0);
  w.PutU8(request.possible ? 1 : 0);
  w.PutU8(request.annotate ? 1 : 0);
  PutOptions(&w, request.options);
  w.PutU64(request.trace_id);
  return w.Take();
}

Status DecodeCqaRequest(std::string_view bytes, CqaRequest* out) {
  BinaryReader r(bytes);
  uint8_t version, certain, possible, annotate;
  DR_RETURN_IF_ERROR(r.GetU8(&version));
  if (version < kMinCodecVersion || version > kCodecVersion) {
    return Status::InvalidArgument(
        StrFormat("cqa request: unsupported version %u",
                  static_cast<unsigned>(version)));
  }
  CqaRequest req;
  DR_RETURN_IF_ERROR(r.GetString(&req.semantics));
  DR_RETURN_IF_ERROR(r.GetString(&req.query));
  DR_RETURN_IF_ERROR(r.GetU8(&certain));
  DR_RETURN_IF_ERROR(r.GetU8(&possible));
  DR_RETURN_IF_ERROR(r.GetU8(&annotate));
  if (certain > 1 || possible > 1 || annotate > 1) {
    return Status::InvalidArgument(
        "cqa request: flag byte must be 0 or 1");
  }
  req.certain = certain != 0;
  req.possible = possible != 0;
  req.annotate = annotate != 0;
  DR_RETURN_IF_ERROR(GetOptions(&r, version, &req.options));
  if (version >= 2) {
    DR_RETURN_IF_ERROR(r.GetU64(&req.trace_id));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        StrFormat("cqa request: %zu trailing bytes", r.remaining()));
  }
  DR_RETURN_IF_ERROR(ValidateCqaRequest(req));
  *out = std::move(req);
  return Status::OK();
}

std::string EncodeUpdateRequest(const UpdateRequest& request) {
  BinaryWriter w;
  w.PutU8(kCodecVersion);
  w.PutU8(static_cast<uint8_t>(request.op));
  w.PutString(request.relation);
  uint32_t arity = request.tuples.empty()
                       ? 0
                       : static_cast<uint32_t>(request.tuples[0].size());
  w.PutU32(arity);
  w.PutU32(static_cast<uint32_t>(request.tuples.size()));
  for (const Tuple& t : request.tuples) {
    DR_CHECK_MSG(t.size() == arity, "update request: ragged tuple batch");
    for (const Value& v : t) PutCell(&w, v);
  }
  return w.Take();
}

Status DecodeUpdateRequest(std::string_view bytes, UpdateRequest* out) {
  BinaryReader r(bytes);
  uint8_t version, op;
  DR_RETURN_IF_ERROR(r.GetU8(&version));
  if (version < kMinCodecVersion || version > kCodecVersion) {
    return Status::InvalidArgument(
        StrFormat("update request: unsupported version %u",
                  static_cast<unsigned>(version)));
  }
  DR_RETURN_IF_ERROR(r.GetU8(&op));
  if (op != static_cast<uint8_t>(WalOp::kInsert) &&
      op != static_cast<uint8_t>(WalOp::kDelete)) {
    return Status::InvalidArgument(
        StrFormat("update request: unknown op %u",
                  static_cast<unsigned>(op)));
  }
  UpdateRequest req;
  req.op = static_cast<WalOp>(op);
  DR_RETURN_IF_ERROR(r.GetString(&req.relation));
  if (req.relation.empty() || req.relation.size() > kMaxRelationNameLen) {
    return Status::InvalidArgument(
        StrFormat("update request: relation name must be 1..%zu chars",
                  kMaxRelationNameLen));
  }
  uint32_t arity, count;
  DR_RETURN_IF_ERROR(r.GetU32(&arity));
  DR_RETURN_IF_ERROR(r.GetU32(&count));
  if (arity > kMaxArity) {
    return Status::InvalidArgument(
        StrFormat("update request: arity %u > %zu", arity, kMaxArity));
  }
  if (count > kMaxUpdateTuples) {
    return Status::InvalidArgument(
        StrFormat("update request: %u tuples exceeds limit %u", count,
                  kMaxUpdateTuples));
  }
  // Each cell is at least one tag byte; reject counts the payload cannot
  // hold before allocating.
  if (arity > 0 && count > r.remaining() / arity) {
    return Status::InvalidArgument("update request: truncated tuple batch");
  }
  req.tuples.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Tuple t(arity);
    for (uint32_t c = 0; c < arity; ++c) {
      DR_RETURN_IF_ERROR(GetCell(&r, &t[c]));
    }
    req.tuples.push_back(std::move(t));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        StrFormat("update request: %zu trailing bytes", r.remaining()));
  }
  *out = std::move(req);
  return Status::OK();
}

}  // namespace deltarepair
