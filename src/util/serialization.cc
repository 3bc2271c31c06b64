#include "util/serialization.h"

#include <algorithm>

#include "util/string_util.h"

namespace imr::util {

namespace {
constexpr uint64_t kFnvPrime = 1099511628211ULL;
}  // namespace

uint64_t Fnv1a(const void* data, size_t size, uint64_t seed) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

BinaryWriter::BinaryWriter(const std::string& path, uint32_t magic,
                           uint32_t version)
    : out_(path, std::ios::binary), path_(path) {
  if (!out_.is_open()) {
    status_ = IoError("cannot open for write: " + path);
    return;
  }
  WriteU32(magic);
  WriteU32(version);
}

void BinaryWriter::WriteRaw(const void* data, size_t size) {
  if (!status_.ok()) return;
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  if (!out_.good()) {
    status_ = IoError(StrFormat("write failed in '%s' at byte offset %llu",
                                path_.c_str(),
                                static_cast<unsigned long long>(offset_)));
    return;
  }
  if (hashing_) hash_ = Fnv1a(data, size, hash_);
  offset_ += size;
}

void BinaryWriter::WriteU32(uint32_t value) { WriteRaw(&value, sizeof value); }
void BinaryWriter::WriteU64(uint64_t value) { WriteRaw(&value, sizeof value); }
void BinaryWriter::WriteI64(int64_t value) { WriteRaw(&value, sizeof value); }
void BinaryWriter::WriteFloat(float value) { WriteRaw(&value, sizeof value); }
void BinaryWriter::WriteDouble(double value) {
  WriteRaw(&value, sizeof value);
}

void BinaryWriter::WriteString(const std::string& value) {
  WriteU64(value.size());
  WriteRaw(value.data(), value.size());
}

void BinaryWriter::WriteFloatVector(const std::vector<float>& values) {
  WriteU64(values.size());
  WriteRaw(values.data(), values.size() * sizeof(float));
}

void BinaryWriter::WriteIntVector(const std::vector<int>& values) {
  WriteU64(values.size());
  for (int value : values) WriteI64(value);
}

void BinaryWriter::WriteRawBytes(const void* data, size_t size) {
  WriteRaw(data, size);
}

void BinaryWriter::PadTo(size_t alignment) {
  static constexpr char kZeros[64] = {};
  if (alignment == 0) return;
  while (status_.ok() && offset_ % alignment != 0) {
    const size_t pad = std::min<size_t>(sizeof kZeros,
                                        alignment - offset_ % alignment);
    WriteRaw(kZeros, pad);
  }
}

void BinaryWriter::StartHashing(uint64_t seed) {
  hashing_ = true;
  hash_ = seed;
}

void BinaryWriter::StopHashing() { hashing_ = false; }

Status BinaryWriter::Close() {
  if (status_.ok()) {
    out_.flush();
    if (!out_.good()) status_ = IoError("flush failed for '" + path_ + "'");
  }
  out_.close();
  return status_;
}

BinaryReader::BinaryReader(const std::string& path, uint32_t magic,
                           uint32_t version)
    : in_(path, std::ios::binary), path_(path) {
  if (!in_.is_open()) {
    status_ = IoError("cannot open for read: " + path);
    return;
  }
  in_.seekg(0, std::ios::end);
  const std::streamoff size = in_.tellg();
  in_.seekg(0, std::ios::beg);
  if (!in_.good() || size < 0) {
    status_ = IoError("cannot determine size of '" + path + "'");
    return;
  }
  end_offset_ = static_cast<uint64_t>(size);
  const uint32_t file_magic = ReadU32();
  const uint32_t file_version = ReadU32();
  if (!status_.ok()) return;
  if (file_magic != magic) {
    status_ = InvalidArgument(
        StrFormat("bad magic in '%s': file has 0x%08x, expected 0x%08x",
                  path.c_str(), file_magic, magic));
  } else if (file_version != version) {
    status_ = InvalidArgument(
        StrFormat("unsupported version in '%s': file has %u, expected %u",
                  path.c_str(), file_version, version));
  }
}

BinaryReader::BinaryReader(const std::string& label, const void* data,
                           size_t size, uint64_t base_offset)
    : path_(label),
      offset_(base_offset),
      end_offset_(base_offset + size),
      view_(static_cast<const uint8_t*>(data)),
      view_base_(base_offset) {}

uint64_t BinaryReader::remaining() const {
  return offset_ >= end_offset_ ? 0 : end_offset_ - offset_;
}

void BinaryReader::ReadRaw(void* data, size_t size) {
  if (!status_.ok()) return;
  if (view_ != nullptr) {
    if (size > remaining()) {
      status_ = IoError(StrFormat(
          "unexpected end of section in '%s' at byte offset %llu (wanted "
          "%zu bytes, got %llu)",
          path_.c_str(), static_cast<unsigned long long>(offset_), size,
          static_cast<unsigned long long>(remaining())));
      return;
    }
    std::copy_n(view_ + (offset_ - view_base_), size,
                static_cast<uint8_t*>(data));
    offset_ += size;
    return;
  }
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  const auto got = in_.gcount();
  if (got != static_cast<std::streamsize>(size)) {
    status_ = IoError(StrFormat(
        "unexpected end of file in '%s' at byte offset %llu (wanted %zu "
        "bytes, got %zu)",
        path_.c_str(), static_cast<unsigned long long>(offset_), size,
        static_cast<size_t>(got)));
    return;
  }
  offset_ += size;
}

void BinaryReader::FailCorruptLength(const char* what) {
  status_ = InvalidArgument(StrFormat(
      "%s longer than the bytes remaining in '%s' at byte offset %llu; "
      "corrupt file?",
      what, path_.c_str(), static_cast<unsigned long long>(offset_)));
}

uint32_t BinaryReader::ReadU32() {
  uint32_t value = 0;
  ReadRaw(&value, sizeof value);
  return value;
}

uint64_t BinaryReader::ReadU64() {
  uint64_t value = 0;
  ReadRaw(&value, sizeof value);
  return value;
}

int64_t BinaryReader::ReadI64() {
  int64_t value = 0;
  ReadRaw(&value, sizeof value);
  return value;
}

float BinaryReader::ReadFloat() {
  float value = 0;
  ReadRaw(&value, sizeof value);
  return value;
}

double BinaryReader::ReadDouble() {
  double value = 0;
  ReadRaw(&value, sizeof value);
  return value;
}

std::string BinaryReader::ReadString() {
  const uint64_t size = ReadU64();
  if (!status_.ok()) return {};
  if (size > remaining()) {
    FailCorruptLength("string");
    return {};
  }
  std::string value(size, '\0');
  ReadRaw(value.data(), size);
  return value;
}

std::vector<float> BinaryReader::ReadFloatVector() {
  const uint64_t size = ReadU64();
  if (!status_.ok()) return {};
  if (size > remaining() / sizeof(float)) {
    FailCorruptLength("vector");
    return {};
  }
  std::vector<float> values(size);
  ReadRaw(values.data(), size * sizeof(float));
  return values;
}

std::vector<int> BinaryReader::ReadIntVector() {
  const uint64_t size = ReadU64();
  if (!status_.ok()) return {};
  if (size > remaining() / sizeof(int64_t)) {
    FailCorruptLength("int vector");
    return {};
  }
  std::vector<int> values(size);
  for (uint64_t i = 0; i < size; ++i) {
    values[i] = static_cast<int>(ReadI64());
    if (!status_.ok()) return {};
  }
  return values;
}

}  // namespace imr::util
