// Binary (little-endian) serialization helpers for corpora, vocabularies and
// embedding matrices. All readers validate a magic+version header so stale
// files fail loudly rather than producing garbage models, and every error
// message names the file and the byte offset where the failure happened so a
// corrupt snapshot is diagnosable without a hex dump.
//
// Readers come in two modes sharing one API:
//   - file mode: streams from an ifstream (the classic parse-and-copy path)
//   - view mode: walks an in-memory byte range (an mmap'd snapshot section
//     or delta file) without copying; offset() still reports absolute file
//     offsets so error messages stay diagnosable
// Every length-prefixed read validates the length against the bytes actually
// remaining, so a corrupt count fails with a Status before any allocation —
// never an OOM or a multi-GB vector resize.
#ifndef IMR_UTIL_SERIALIZATION_H_
#define IMR_UTIL_SERIALIZATION_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/status.h"

namespace imr::util {

/// FNV-1a over `size` bytes, seedable so section hashes chain (the IMRD
/// delta result hash seeds with the base snapshot's content hash).
inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
uint64_t Fnv1a(const void* data, size_t size,
               uint64_t seed = kFnvOffsetBasis);

class BinaryWriter {
 public:
  /// Opens `path` for writing and emits the header. Check status() before
  /// use.
  BinaryWriter(const std::string& path, uint32_t magic, uint32_t version);

  const Status& status() const { return status_; }
  const std::string& path() const { return path_; }
  /// Bytes written so far (including the 8-byte header).
  uint64_t offset() const { return offset_; }

  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI64(int64_t value);
  void WriteFloat(float value);
  void WriteDouble(double value);
  void WriteString(const std::string& value);
  void WriteFloatVector(const std::vector<float>& values);
  /// Length-prefixed vector of ints (stored as i64 each; meant for small
  /// id lists like entity types, not bulk data).
  void WriteIntVector(const std::vector<int>& values);

  /// Unprefixed raw bytes — the bulk carrier for zero-copy snapshot
  /// sections, whose sizes live in the trailing offset table instead of
  /// inline.
  void WriteRawBytes(const void* data, size_t size);
  /// Zero-fills until offset() is a multiple of `alignment` (a power of
  /// two), so mmap'd payloads start on cache-line / SIMD-safe boundaries.
  void PadTo(size_t alignment);

  /// Content hashing: every byte written while enabled folds into an
  /// FNV-1a running hash. The snapshot writer enables it after the header
  /// and records hash() in the footer as the file's identity.
  void StartHashing(uint64_t seed = kFnvOffsetBasis);
  void StopHashing();
  uint64_t hash() const { return hash_; }

  /// Flushes and closes; returns the final status.
  [[nodiscard]] Status Close();

 private:
  void WriteRaw(const void* data, size_t size);

  std::ofstream out_;
  std::string path_;
  uint64_t offset_ = 0;
  bool hashing_ = false;
  uint64_t hash_ = kFnvOffsetBasis;
  Status status_;
};

class BinaryReader {
 public:
  /// File mode: opens `path` and validates the header against
  /// magic/version.
  BinaryReader(const std::string& path, uint32_t magic, uint32_t version);

  /// View mode: walks `[data, data + size)` in memory with NO header —
  /// the caller (the snapshot or delta reader) already validated framing
  /// and hands in one section's byte range. `label` names the backing file
  /// and `base_offset` is the range's absolute file offset, so errors
  /// report real file positions.
  BinaryReader(const std::string& label, const void* data, size_t size,
               uint64_t base_offset);

  const Status& status() const { return status_; }
  const std::string& path() const { return path_; }
  /// Bytes consumed so far (including the 8-byte header in file mode; the
  /// absolute file offset in view mode).
  uint64_t offset() const { return offset_; }
  /// Bytes left before end-of-file (file mode) or end-of-view. Length
  /// prefixes are validated against this before allocating.
  uint64_t remaining() const;

  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64();
  float ReadFloat();
  double ReadDouble();
  std::string ReadString();
  std::vector<float> ReadFloatVector();
  std::vector<int> ReadIntVector();

  /// Unprefixed raw bytes into caller storage — the counterpart of
  /// WriteRawBytes. ApplyDelta streams row payloads straight into the
  /// copy-on-write clone with this instead of bouncing through a vector.
  void ReadBytes(void* out, size_t size) { ReadRaw(out, size); }

 private:
  void ReadRaw(void* data, size_t size);
  void FailCorruptLength(const char* what);

  std::ifstream in_;
  std::string path_;
  uint64_t offset_ = 0;
  uint64_t end_offset_ = 0;  // file size (file mode) / view end (view mode)
  const uint8_t* view_ = nullptr;  // non-null in view mode
  uint64_t view_base_ = 0;         // absolute file offset of view_[0]
  Status status_;
};

}  // namespace imr::util

#endif  // IMR_UTIL_SERIALIZATION_H_
