// Read-only memory-mapped file with RAII unmap — the storage layer for
// zero-copy IMRS snapshot loading. The mapping retains its file
// descriptor, so the bytes stay valid even after the path is unlinked or
// replaced on disk: a serving generation can keep borrowing rows from a
// snapshot whose file a deployer already rotated away.
//
// Two modes, one interface:
//   - mapped:   mmap(MAP_PRIVATE, PROT_READ); pages fault in lazily, so
//               opening a multi-GB snapshot costs O(header), not O(bytes).
//   - fallback: the whole file read into an owned heap buffer, 64-byte
//               aligned so the snapshot's 64-byte-aligned arrays stay
//               aligned in memory. Selected when mmap is unavailable, or
//               forced with IMR_NO_MMAP=1 (ctest's serve_test_no_mmap entry
//               runs the snapshot and delta suites that way).
//
// PrivateCopy() is the delta-apply primitive: it returns a fresh WRITABLE
// MAP_PRIVATE view of the same file bytes. The kernel copy-on-writes only
// the pages actually stored to, so patching k touched embedding rows dirties
// O(k) pages while every untouched block stays aliased to the base file —
// block-aliasing without any explicit block bookkeeping.
#ifndef IMR_UTIL_MMAP_FILE_H_
#define IMR_UTIL_MMAP_FILE_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "util/status.h"

namespace imr::util {

class MmapFile {
 public:
  /// Maps `path` read-only (heap fallback when mmap is unavailable).
  /// Shared ownership because borrowers (embedding-store views, snapshot
  /// layouts) pin the mapping for as long as any generation serves from it.
  [[nodiscard]] static StatusOr<std::shared_ptr<MmapFile>> Open(
      const std::string& path);

  MmapFile() = default;
  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  /// False when serving from the read-into-memory fallback.
  bool mapped() const { return map_ != nullptr; }
  bool writable() const { return writable_; }
  const std::string& path() const { return path_; }

  /// A fresh writable copy-on-write view of the same file bytes (heap copy
  /// in fallback mode). Works after the path was unlinked: the mapping is
  /// re-established from the retained file descriptor, never the path.
  [[nodiscard]] StatusOr<std::shared_ptr<MmapFile>> PrivateCopy() const;

  /// Mutable bytes; only valid on a PrivateCopy() result.
  uint8_t* mutable_data();

 private:
  struct FreeDeleter {
    void operator()(uint8_t* bytes) const { std::free(bytes); }
  };

  int fd_ = -1;            // retained for PrivateCopy after unlink
  void* map_ = nullptr;    // mmap base; nullptr in fallback mode
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool writable_ = false;
  std::unique_ptr<uint8_t, FreeDeleter> heap_;  // fallback storage
  std::string path_;
};

}  // namespace imr::util

#endif  // IMR_UTIL_MMAP_FILE_H_
