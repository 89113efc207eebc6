// Wire (de)serialization of the serving request types, shared by the
// server, the client tool, and CLI-side validation. Encodings are
// little-endian, version-prefixed, and strictly validated on decode:
// unknown versions, out-of-range knobs, non-finite budgets, and trailing
// bytes all come back as a typed Status — a decoder never aborts.
//
// Process-local fields do not travel: RepairOptions.cancel,
// record_provenance and MinOnesOptions.cancel arrive null (the server
// wires its own cancellation in).
#ifndef DELTAREPAIR_SERVICE_REQUEST_CODEC_H_
#define DELTAREPAIR_SERVICE_REQUEST_CODEC_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "cqa/cqa.h"
#include "repair/repair_options.h"
#include "service/wal.h"

namespace deltarepair {

/// Structural + registry validation shared by the decoders and the CLI:
/// known semantics name, finite non-negative budgets, sane thread
/// counts. OK requests execute without aborting.
Status ValidateRepairRequest(const RepairRequest& request);
Status ValidateCqaRequest(const CqaRequest& request);

std::string EncodeRepairRequest(const RepairRequest& request);
Status DecodeRepairRequest(std::string_view bytes, RepairRequest* out);

std::string EncodeCqaRequest(const CqaRequest& request);
Status DecodeCqaRequest(std::string_view bytes, CqaRequest* out);

/// An instance update shipped to the server: insert or delete a batch of
/// tuples into one relation (by name; cells typed via cell_codec).
struct UpdateRequest {
  WalOp op = WalOp::kInsert;
  std::string relation;
  std::vector<Tuple> tuples;
};

std::string EncodeUpdateRequest(const UpdateRequest& request);
Status DecodeUpdateRequest(std::string_view bytes, UpdateRequest* out);

}  // namespace deltarepair

#endif  // DELTAREPAIR_SERVICE_REQUEST_CODEC_H_
