#include "json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace imr::e2e {

Json Json::Bool(bool value) {
  Json json;
  json.type_ = Type::kBool;
  json.bool_ = value;
  return json;
}

Json Json::Number(double value) {
  Json json;
  json.type_ = Type::kNumber;
  json.number_ = value;
  return json;
}

Json Json::String(std::string value) {
  Json json;
  json.type_ = Type::kString;
  json.string_ = std::move(value);
  return json;
}

Json Json::Array() {
  Json json;
  json.type_ = Type::kArray;
  return json;
}

Json Json::Object() {
  Json json;
  json.type_ = Type::kObject;
  return json;
}

const Json* Json::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

Json& Json::Set(const std::string& key, Json value) {
  type_ = Type::kObject;
  for (auto& [name, existing] : members_) {
    if (name == key) {
      existing = std::move(value);
      return existing;
    }
  }
  members_.emplace_back(key, std::move(value));
  return members_.back().second;
}

Json& Json::Push(Json value) {
  type_ = Type::kArray;
  items_.push_back(std::move(value));
  return items_.back();
}

std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string Json::Dump() const {
  switch (type_) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return bool_ ? "true" : "false";
    case Type::kNumber: {
      if (!std::isfinite(number_)) return "null";
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", number_);
      return buf;
    }
    case Type::kString:
      return JsonQuote(string_);
    case Type::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ", ";
        out += items_[i].Dump();
      }
      return out + "]";
    }
    case Type::kObject: {
      std::string out = "{";
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ", ";
        out += JsonQuote(members_[i].first) + ": " + members_[i].second.Dump();
      }
      return out + "}";
    }
  }
  return "null";
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  util::StatusOr<Json> ParseDocument() {
    Json value;
    IMR_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  // Result files nest a handful of levels; anything deeper is malformed.
  static constexpr int kMaxDepth = 64;

  util::Status Error(const std::string& what) const {
    return util::InvalidArgument("json: " + what + " at byte " +
                                 std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  util::Status ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      std::string s;
      IMR_RETURN_IF_ERROR(ParseString(&s));
      *out = Json::String(std::move(s));
      return util::OkStatus();
    }
    if (Consume("true")) {
      *out = Json::Bool(true);
      return util::OkStatus();
    }
    if (Consume("false")) {
      *out = Json::Bool(false);
      return util::OkStatus();
    }
    if (Consume("null")) {
      *out = Json();
      return util::OkStatus();
    }
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double number = std::strtod(begin, &end);
    if (end == begin) return Error("unexpected character");
    pos_ += static_cast<size_t>(end - begin);
    *out = Json::Number(number);
    return util::OkStatus();
  }

  util::Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return util::OkStatus();
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 't': *out += '\t'; break;
        case 'r': *out += '\r'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("short \\u escape");
          const long code =
              std::strtol(text_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // The benchmark only writes ASCII; keep other code points as '?'.
          *out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  util::Status ParseArray(Json* out, int depth) {
    ++pos_;
    *out = Json::Array();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return util::OkStatus();
    }
    while (true) {
      Json item;
      IMR_RETURN_IF_ERROR(ParseValue(&item, depth + 1));
      out->Push(std::move(item));
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return util::OkStatus();
      }
      return Error("expected ',' or ']'");
    }
  }

  util::Status ParseObject(Json* out, int depth) {
    ++pos_;
    *out = Json::Object();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return util::OkStatus();
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected member name");
      }
      std::string key;
      IMR_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Error("expected ':'");
      ++pos_;
      Json value;
      IMR_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Set(key, std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return util::OkStatus();
      }
      return Error("expected ',' or '}'");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

util::StatusOr<Json> Json::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

util::StatusOr<Json> Json::ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = Parse(buffer.str());
  if (!parsed.ok()) {
    return util::InvalidArgument(path + ": " + parsed.status().message());
  }
  return parsed;
}

}  // namespace imr::e2e
