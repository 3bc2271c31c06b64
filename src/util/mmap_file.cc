#include "util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace imr::util {

namespace {

bool MmapDisabled() {
  const char* flag = std::getenv("IMR_NO_MMAP");
  return flag != nullptr && flag[0] != '\0' && flag[0] != '0';
}

/// A heap block of at least `size` bytes on a 64-byte boundary (fallback
/// mode). A mapping starts on a page, so offsets the snapshot format aligns
/// to 64 bytes are aligned in memory; the fallback buffer must keep that.
uint8_t* AllocateAligned(size_t size) {
  constexpr size_t kAlign = 64;
  const size_t rounded = (size + kAlign) / kAlign * kAlign;  // never 0
  return static_cast<uint8_t*>(std::aligned_alloc(kAlign, rounded));
}

/// Reads the whole file behind `fd` into `out` (fallback mode).
Status ReadAll(int fd, size_t size, const std::string& path, uint8_t* out) {
  size_t done = 0;
  while (done < size) {
    const ssize_t got =
        ::pread(fd, out + done, size - done, static_cast<off_t>(done));
    if (got < 0) return IoError("read failed for '" + path + "'");
    if (got == 0) {
      return IoError(StrFormat("file '%s' shrank while reading (wanted %zu "
                               "bytes, got %zu)",
                               path.c_str(), size, done));
    }
    done += static_cast<size_t>(got);
  }
  return OkStatus();
}

}  // namespace

MmapFile::~MmapFile() {
  if (map_ != nullptr) ::munmap(map_, size_);
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::shared_ptr<MmapFile>> MmapFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return IoError("cannot open for read: " + path);
  struct ::stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return IoError("cannot stat regular file: " + path);
  }
  auto file = std::make_shared<MmapFile>();
  file->fd_ = fd;
  file->size_ = static_cast<size_t>(st.st_size);
  file->path_ = path;
  if (file->size_ > 0 && !MmapDisabled()) {
    void* map = ::mmap(nullptr, file->size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      file->map_ = map;
      file->data_ = static_cast<const uint8_t*>(map);
      return file;
    }
    // mmap unavailable (filesystem, rlimit, ...): fall through to the read
    // fallback rather than failing the load.
  }
  file->heap_.reset(AllocateAligned(file->size_));
  if (file->heap_ == nullptr) {
    return IoError("cannot allocate a read buffer for '" + path + "'");
  }
  const Status read = ReadAll(fd, file->size_, path, file->heap_.get());
  if (!read.ok()) return read;
  file->data_ = file->heap_.get();
  return file;
}

StatusOr<std::shared_ptr<MmapFile>> MmapFile::PrivateCopy() const {
  auto copy = std::make_shared<MmapFile>();
  copy->size_ = size_;
  copy->path_ = path_;
  copy->writable_ = true;
  if (map_ != nullptr && fd_ >= 0) {
    // Fresh CoW mapping from the retained descriptor: valid after unlink,
    // and only the pages we later store into get private copies.
    void* map = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE,
                       fd_, 0);
    if (map == MAP_FAILED) {
      return IoError("cannot remap for private copy: " + path_);
    }
    copy->map_ = map;
    copy->data_ = static_cast<uint8_t*>(map);
    return copy;
  }
  copy->heap_.reset(AllocateAligned(size_));
  if (copy->heap_ == nullptr) {
    return IoError("cannot allocate a private copy of '" + path_ + "'");
  }
  std::memcpy(copy->heap_.get(), data_, size_);
  copy->data_ = copy->heap_.get();
  return copy;
}

uint8_t* MmapFile::mutable_data() {
  IMR_CHECK(writable_);
  if (map_ != nullptr) return static_cast<uint8_t*>(map_);
  return heap_.get();
}

}  // namespace imr::util
