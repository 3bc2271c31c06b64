// Minimal JSON value for the benchmark's own files: result JSONs written by
// imr_e2e and BENCHMARK.json, read back by --compare and --merge. Numbers
// are doubles; objects keep insertion order so rewritten files diff cleanly.
#ifndef IMR_BENCH_E2E_JSON_H_
#define IMR_BENCH_E2E_JSON_H_

#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace imr::e2e {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  static Json Bool(bool value);
  static Json Number(double value);
  static Json String(std::string value);
  static Json Array();
  static Json Object();

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<Json>& items() const { return items_; }
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Object member lookup; null when absent or not an object.
  const Json* Find(const std::string& key) const;
  /// Sets (or replaces) an object member.
  Json& Set(const std::string& key, Json value);
  /// Appends to an array.
  Json& Push(Json value);

  /// Compact single-line serialisation. Numbers print with 17 significant
  /// digits so a value survives a parse/dump round trip unchanged.
  std::string Dump() const;

  [[nodiscard]] static util::StatusOr<Json> Parse(const std::string& text);
  [[nodiscard]] static util::StatusOr<Json> ParseFile(const std::string& path);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// JSON string literal (with quotes) for `text`.
std::string JsonQuote(const std::string& text);

}  // namespace imr::e2e

#endif  // IMR_BENCH_E2E_JSON_H_
