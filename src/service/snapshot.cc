#include "service/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "common/checksum.h"
#include "common/framing.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/cell_codec.h"

namespace deltarepair {

namespace {

constexpr char kSnapshotMagic[] = "DRSNAP01";  // 8 bytes, no terminator
constexpr uint32_t kSnapshotVersion = 2;

// Sections smaller than this decode inline; the thread fan-out only
// pays for itself on real databases.
constexpr size_t kParallelThresholdBytes = 32 * 1024;

void PutBitmap(BinaryWriter* w, const RelationView& view, size_t num_rows,
               bool delta) {
  std::string packed((num_rows + 7) / 8, '\0');
  for (size_t r = 0; r < num_rows; ++r) {
    bool bit = delta ? view.delta(static_cast<uint32_t>(r))
                     : view.live(static_cast<uint32_t>(r));
    if (bit) packed[r / 8] |= static_cast<char>(1u << (r % 8));
  }
  w->PutRaw(packed);
}

Status GetBitmap(BinaryReader* r, size_t num_rows,
                 std::vector<uint8_t>* out, size_t* count) {
  std::string_view packed;
  DR_RETURN_IF_ERROR(r->GetRaw((num_rows + 7) / 8, &packed));
  out->assign(num_rows, 0);
  *count = 0;
  for (size_t i = 0; i < num_rows; ++i) {
    if (static_cast<uint8_t>(packed[i / 8]) & (1u << (i % 8))) {
      (*out)[i] = 1;
      ++*count;
    }
  }
  return Status::OK();
}

/// Appends `section` plus its crc to `out`.
void SealSection(std::string* out, const std::string& section) {
  out->append(section);
  BinaryWriter crc;
  crc.PutU32(Crc32(section));
  out->append(crc.str());
}

inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t LoadLe64(const unsigned char* p) {
  return static_cast<uint64_t>(LoadLe32(p)) |
         (static_cast<uint64_t>(LoadLe32(p + 4)) << 32);
}

/// One relation section decoded off the wire, not yet installed in a
/// Database (sections decode on worker threads; installation happens
/// in file order on the calling thread). Cells are row-major codes in
/// which inline ints are final and every other value is a *local* code,
/// id << 1 | 1 into `locals`, the section's own table; install interns
/// the locals into the database's dictionary and rewrites those cells.
struct DecodedRelation {
  RelationSchema schema;
  uint64_t row_count = 0;
  std::vector<Code> cells;
  std::vector<Value> locals;
  RowHashTable dedupe;
  RelationView::State state;
};

/// Decodes the column-major cell block with raw pointer arithmetic into
/// `out`'s row-major local codes. This is the hottest loop of recovery;
/// going through the per-cell Status machinery of BinaryReader roughly
/// doubles its cost. Each distinct string gets one local entry.
Status DecodeCells(const unsigned char* p, const unsigned char* end,
                   uint32_t arity, DecodedRelation* out, size_t* consumed) {
  const unsigned char* start = p;
  const uint64_t row_count = out->row_count;
  out->cells.assign(row_count * arity, 0);
  out->locals.clear();
  std::unordered_map<std::string_view, Code> strings;
  Code null_code = 0;  // 0 (an inline code) until the first null
  auto add_local = [out](Value v) {
    out->locals.push_back(std::move(v));
    return (static_cast<Code>(out->locals.size() - 1) << 1) | 1;
  };
  for (uint32_t c = 0; c < arity; ++c) {
    for (uint64_t row = 0; row < row_count; ++row) {
      Code& cell = out->cells[row * arity + c];
      if (p >= end) {
        return Status::InvalidArgument("snapshot: truncated cell data");
      }
      switch (*p++) {
        case static_cast<uint8_t>(ValueType::kNull):
          if (null_code == 0) null_code = add_local(Value());
          cell = null_code;
          break;
        case static_cast<uint8_t>(ValueType::kInt): {
          // Zigzag varint, inlined (matches BinaryReader::GetVarintI64).
          uint64_t z = 0;
          int shift = 0;
          uint8_t byte;
          do {
            if (p >= end || shift >= 70) {
              return Status::InvalidArgument(
                  "snapshot: truncated cell data");
            }
            byte = *p++;
            z |= static_cast<uint64_t>(byte & 0x7F) << shift;
            shift += 7;
          } while (byte & 0x80);
          const int64_t v = static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
          cell = ValueDict::FitsInline(v) ? ValueDict::InlineCode(v)
                                          : add_local(Value(v));
          break;
        }
        case static_cast<uint8_t>(ValueType::kString): {
          if (static_cast<size_t>(end - p) < 4) {
            return Status::InvalidArgument("snapshot: truncated cell data");
          }
          uint32_t len = LoadLe32(p);
          p += 4;
          if (static_cast<size_t>(end - p) < len) {
            return Status::InvalidArgument("snapshot: truncated cell data");
          }
          std::string_view str(reinterpret_cast<const char*>(p), len);
          auto [it, fresh] = strings.try_emplace(str, 0);
          if (fresh) it->second = add_local(Value(std::string(str)));
          cell = it->second;
          p += len;
          break;
        }
        default:
          return Status::InvalidArgument(
              StrFormat("unknown value tag %u",
                        static_cast<unsigned>(p[-1])));
      }
    }
  }
  *consumed = static_cast<size_t>(p - start);
  return Status::OK();
}

/// Writes one cell in PutCell's format straight from its code.
void PutCode(BinaryWriter* w, const ValueDict& dict, Code code) {
  if (ValueDict::IsInline(code)) {
    w->PutU8(static_cast<uint8_t>(ValueType::kInt));
    w->PutVarintI64(ValueDict::InlineInt(code));
  } else {
    PutCell(w, dict.Entry(code));
  }
}

/// Decodes one relation section (`payload` excludes the trailing crc,
/// which the caller has already verified).
Status DecodeSection(std::string_view payload, DecodedRelation* out) {
  BinaryReader r(payload);

  std::string name;
  DR_RETURN_IF_ERROR(r.GetString(&name));
  uint32_t arity;
  DR_RETURN_IF_ERROR(r.GetU32(&arity));
  if (arity > kMaxArity) {
    return Status::InvalidArgument(
        StrFormat("snapshot: relation '%s' has arity %u > %zu", name.c_str(),
                  arity, kMaxArity));
  }
  std::vector<Attribute> attrs;
  attrs.reserve(arity);
  for (uint32_t c = 0; c < arity; ++c) {
    Attribute attr;
    DR_RETURN_IF_ERROR(r.GetString(&attr.name));
    uint8_t type;
    DR_RETURN_IF_ERROR(r.GetU8(&type));
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::InvalidArgument(
          StrFormat("snapshot: bad attribute type %u in '%s'",
                    static_cast<unsigned>(type), name.c_str()));
    }
    attr.type = static_cast<ValueType>(type);
    attrs.push_back(std::move(attr));
  }
  uint64_t row_count;
  DR_RETURN_IF_ERROR(r.GetU64(&row_count));
  // A row stores at least one tag byte per cell plus an 8-byte hash;
  // reject counts the remaining bytes cannot possibly hold before
  // allocating anything.
  if (row_count > 0 &&
      row_count > r.remaining() / (arity > 0 ? arity + 8 : 8)) {
    return Status::InvalidArgument(
        StrFormat("snapshot: relation '%s' claims %llu rows but only %zu "
                  "bytes remain",
                  name.c_str(), static_cast<unsigned long long>(row_count),
                  r.remaining()));
  }

  const unsigned char* base =
      reinterpret_cast<const unsigned char*>(payload.data());
  size_t consumed = 0;
  out->row_count = row_count;
  DR_RETURN_IF_ERROR(DecodeCells(base + r.position(),
                                 base + payload.size(), arity, out,
                                 &consumed));
  std::string_view skipped;
  DR_RETURN_IF_ERROR(r.GetRaw(consumed, &skipped));

  if (r.remaining() < row_count * 8) {
    return Status::InvalidArgument("snapshot: truncated row hashes");
  }
  // Build the dedupe table right here, on whichever worker thread is
  // decoding this section — installation then just adopts it.
  out->dedupe.BuildFromLe(base + r.position(),
                          static_cast<uint32_t>(row_count));
  DR_RETURN_IF_ERROR(r.GetRaw(row_count * 8, &skipped));

  DR_RETURN_IF_ERROR(
      GetBitmap(&r, row_count, &out->state.live, &out->state.live_count));
  DR_RETURN_IF_ERROR(
      GetBitmap(&r, row_count, &out->state.delta, &out->state.delta_count));
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        StrFormat("snapshot: %zu trailing bytes in relation '%s'",
                  r.remaining(), name.c_str()));
  }

  out->schema = RelationSchema(std::move(name), std::move(attrs));
  return Status::OK();
}

/// Checks the section crc, then decodes. `slice` is the whole section
/// as named by the header directory: payload | u32 crc.
Status VerifyAndDecodeSection(std::string_view slice, DecodedRelation* out) {
  std::string_view payload = slice.substr(0, slice.size() - 4);
  uint32_t crc = LoadLe32(
      reinterpret_cast<const unsigned char*>(slice.data() + slice.size() - 4));
  if (crc != Crc32(payload)) {
    return Status::InvalidArgument("snapshot: relation checksum mismatch");
  }
  return DecodeSection(payload, out);
}

}  // namespace

std::string EncodeSnapshot(const Database& db) {
  // Encode every relation section first; the header needs their sizes
  // for its offset directory.
  std::vector<std::string> sections;
  sections.reserve(db.num_relations());
  for (uint32_t i = 0; i < db.num_relations(); ++i) {
    const Relation& rel = db.relation(i);
    const RelationSchema& schema = rel.schema();
    const RelationView& view = db.base_view().rel(i);
    const size_t n = rel.num_rows();

    BinaryWriter w;
    w.PutString(schema.name());
    w.PutU32(static_cast<uint32_t>(schema.arity()));
    for (const Attribute& attr : schema.attributes()) {
      w.PutString(attr.name);
      w.PutU8(static_cast<uint8_t>(attr.type));
    }
    w.PutU64(n);
    // Column-major value segments: cells of one column are adjacent, so
    // int columns decode as a tight tag+i64 stream.
    for (size_t c = 0; c < schema.arity(); ++c) {
      for (size_t row = 0; row < n; ++row) {
        PutCode(&w, db.dict(), rel.codes(static_cast<uint32_t>(row))[c]);
      }
    }
    // Row dedupe table: the interning hash of every row slot, so a load
    // rebuilds the dedupe map without re-hashing any value.
    for (size_t row = 0; row < n; ++row) {
      w.PutU64(rel.RowHash(static_cast<uint32_t>(row)));
    }
    PutBitmap(&w, view, n, /*delta=*/false);
    PutBitmap(&w, view, n, /*delta=*/true);
    sections.push_back(w.Take());
  }

  BinaryWriter header;
  header.PutRaw(std::string_view(kSnapshotMagic, 8));
  header.PutU32(kSnapshotVersion);
  header.PutU32(static_cast<uint32_t>(db.num_relations()));
  // Directory: absolute offset and length (crc included) per section,
  // laid out back to back after the header.
  uint64_t offset = 8 + 4 + 4 + sections.size() * 16 + 4;
  for (const std::string& s : sections) {
    header.PutU64(offset);
    header.PutU64(s.size() + 4);
    offset += s.size() + 4;
  }

  std::string out;
  out.reserve(offset);
  SealSection(&out, header.str());
  for (const std::string& s : sections) SealSection(&out, s);
  return out;
}

Status DecodeSnapshot(std::string_view bytes, Database* db) {
  if (db->num_relations() != 0) {
    return Status::FailedPrecondition(
        "snapshot load requires an empty database");
  }

  // Header section.
  constexpr size_t kFixedHeaderLen = 8 + 4 + 4;
  if (bytes.size() < kFixedHeaderLen + 4) {
    return Status::InvalidArgument("snapshot: truncated header");
  }
  if (bytes.substr(0, 8) != std::string_view(kSnapshotMagic, 8)) {
    return Status::InvalidArgument("snapshot: bad magic (not a snapshot?)");
  }
  BinaryReader hr(bytes.substr(8));
  uint32_t version, num_relations;
  DR_RETURN_IF_ERROR(hr.GetU32(&version));
  DR_RETURN_IF_ERROR(hr.GetU32(&num_relations));
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        StrFormat("snapshot: unsupported version %u (expected %u)", version,
                  kSnapshotVersion));
  }
  const size_t header_len = kFixedHeaderLen + num_relations * 16ull;
  if (num_relations > bytes.size() / 16 ||
      bytes.size() < header_len + 4) {
    return Status::InvalidArgument("snapshot: truncated header directory");
  }
  {
    std::string_view section = bytes.substr(0, header_len);
    uint32_t crc = LoadLe32(reinterpret_cast<const unsigned char*>(
        bytes.data() + header_len));
    if (crc != Crc32(section)) {
      return Status::InvalidArgument("snapshot: header checksum mismatch");
    }
  }

  // Directory: sections must tile the rest of the file exactly.
  std::vector<std::string_view> slices;
  slices.reserve(num_relations);
  uint64_t expect = header_len + 4;
  for (uint32_t i = 0; i < num_relations; ++i) {
    uint64_t offset, length;
    DR_CHECK_MSG(hr.GetU64(&offset).ok() && hr.GetU64(&length).ok(),
                 "directory shorter than the verified header");
    if (offset != expect || length < 4 ||
        length > bytes.size() - offset) {
      return Status::InvalidArgument(
          StrFormat("snapshot: bad directory entry %u", i));
    }
    slices.push_back(bytes.substr(offset, length));
    expect = offset + length;
  }
  if (expect != bytes.size()) {
    return Status::InvalidArgument(
        StrFormat("snapshot: %zu trailing bytes after last relation",
                  bytes.size() - expect));
  }

  // Decode sections — in parallel when the snapshot is big enough for
  // the fan-out to pay. Workers claim section indexes from a shared
  // counter and write to disjoint slots; installation below happens in
  // file order after the join, so relation indexes are deterministic.
  std::vector<DecodedRelation> decoded(num_relations);
  std::vector<Status> results(num_relations, Status::OK());
  size_t hw = std::thread::hardware_concurrency();
  size_t num_threads =
      std::min<size_t>({num_relations, hw > 0 ? hw : 2, 8});
  if (num_threads > 1 && bytes.size() >= kParallelThresholdBytes) {
    std::atomic<uint32_t> next{0};
    auto worker = [&]() {
      for (uint32_t i = next.fetch_add(1); i < num_relations;
           i = next.fetch_add(1)) {
        results[i] = VerifyAndDecodeSection(slices[i], &decoded[i]);
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(num_threads - 1);
    for (size_t t = 1; t < num_threads; ++t) threads.emplace_back(worker);
    worker();
    for (std::thread& t : threads) t.join();
  } else {
    for (uint32_t i = 0; i < num_relations; ++i) {
      results[i] = VerifyAndDecodeSection(slices[i], &decoded[i]);
    }
  }
  for (const Status& st : results) DR_RETURN_IF_ERROR(st);

  for (uint32_t i = 0; i < num_relations; ++i) {
    DecodedRelation& d = decoded[i];
    if (db->RelationIndex(d.schema.name()) >= 0) {
      return Status::InvalidArgument(
          StrFormat("snapshot: duplicate relation '%s'",
                    d.schema.name().c_str()));
    }
    uint32_t rel = db->AddRelation(std::move(d.schema));
    std::vector<Code> global(d.locals.size());
    for (size_t l = 0; l < d.locals.size(); ++l) {
      global[l] = db->mutable_dict().Intern(d.locals[l]);
    }
    for (Code& cell : d.cells) {
      if (!ValueDict::IsInline(cell)) cell = global[cell >> 1];
    }
    db->mutable_relation(rel).BulkLoadRows(std::move(d.cells), d.row_count,
                                           std::move(d.dedupe));
    db->base_view().rel(rel).Restore(d.state);
  }
  return Status::OK();
}

Status WriteSnapshotFile(const Database& db, const std::string& path) {
  Span span("snapshot.write");
  static Histogram* write_seconds = MetricsRegistry::Global().GetHistogram(
      "drepair_snapshot_write_seconds", "Snapshot file write wall time");
  WallTimer timer;
  std::string bytes = EncodeSnapshot(db);
  span.SetArg("bytes", bytes.size());
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("snapshot: cannot open " + tmp);
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::Internal("snapshot: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("snapshot: rename to " + path + " failed");
  }
  write_seconds->Observe(timer.ElapsedSeconds());
  return Status::OK();
}

Status LoadSnapshotFile(const std::string& path, Database* db) {
  Span span("snapshot.load");
  static Histogram* load_seconds = MetricsRegistry::Global().GetHistogram(
      "drepair_snapshot_load_seconds", "Snapshot file load wall time");
  WallTimer timer;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("snapshot: cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("snapshot: stat failed for " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::InvalidArgument("snapshot: truncated header");
  }
  // Decode straight out of the page cache — no copy into a heap buffer.
  // MAP_POPULATE (where available) prefaults the mapping so the decode
  // loop doesn't take a page fault per 4 KiB.
  int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
  flags |= MAP_POPULATE;
#endif
  void* map = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    // Fall back to a plain read (mmap can fail on odd filesystems).
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("snapshot: cannot open " + path);
    std::string bytes(size, '\0');
    in.read(&bytes[0], static_cast<std::streamsize>(size));
    if (!in) return Status::Internal("snapshot: read failed for " + path);
    Status status = DecodeSnapshot(bytes, db);
    if (status.ok()) load_seconds->Observe(timer.ElapsedSeconds());
    return status;
  }
  Status status =
      DecodeSnapshot(std::string_view(static_cast<const char*>(map), size),
                     db);
  ::munmap(map, size);
  if (status.ok()) load_seconds->Observe(timer.ElapsedSeconds());
  return status;
}

}  // namespace deltarepair
