#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <utility>

namespace imr::lint {

// ---- source scanning -----------------------------------------------------

ScannedFile ScanSource(const std::string& content) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  ScannedFile out;
  std::string code_line;
  std::string comment_line;
  State state = State::kCode;
  char prev_code = '\0';  // last code char, for digit-separator detection
  std::string raw_terminator;  // `)delim"` that ends the raw string
  size_t raw_matched = 0;      // prefix of raw_terminator seen so far
  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      out.code.push_back(code_line);
      out.comments.push_back(comment_line);
      code_line.clear();
      comment_line.clear();
      if (state == State::kLineComment) state = State::kCode;
      if (state == State::kRawString) raw_matched = 0;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          code_line += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code_line += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   !(std::isalnum(static_cast<unsigned char>(prev_code)) ||
                     prev_code == '_')) {
          // Raw string literal R"delim(...)delim" — embedded quotes and
          // escapes are literal text, so the whole thing is blanked until
          // the matching `)delim"` terminator.
          size_t j = i + 2;  // first delimiter char
          std::string delim;
          while (j < content.size() && content[j] != '(' &&
                 delim.size() < 17) {
            delim += content[j];
            ++j;
          }
          if (j < content.size() && content[j] == '(') {
            raw_terminator = ")" + delim + "\"";
            raw_matched = 0;
            state = State::kRawString;
            // blank "R", the quote, the delimiter, and the open paren
            code_line.append(j - i + 1, ' ');
            i = j;
            prev_code = '\0';
          } else {
            code_line += c;  // malformed; treat the R as code
            prev_code = c;
          }
        } else if (c == '"') {
          state = State::kString;
          code_line += ' ';
        } else if (c == '\'' &&
                   !(std::isalnum(static_cast<unsigned char>(prev_code)) ||
                     prev_code == '_')) {
          // A quote directly after an identifier/number char is a C++14
          // digit separator (1'000'000), not a char literal.
          state = State::kChar;
          code_line += ' ';
        } else {
          code_line += c;
          prev_code = c;
        }
        break;
      case State::kLineComment:
        comment_line += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          code_line += "  ";
          ++i;
        } else {
          comment_line += c;
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          code_line += "  ";
          ++i;
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          state = State::kCode;
          code_line += ' ';
          prev_code = '\0';
        } else {
          code_line += ' ';
        }
        break;
      case State::kRawString:
        code_line += ' ';
        if (c == raw_terminator[raw_matched]) {
          ++raw_matched;
          if (raw_matched == raw_terminator.size()) {
            state = State::kCode;
            prev_code = '\0';
          }
        } else {
          // restart, allowing the failed char to begin a new `)` match
          raw_matched = (c == raw_terminator[0]) ? 1 : 0;
        }
        break;
    }
  }
  out.code.push_back(code_line);
  out.comments.push_back(comment_line);
  return out;
}

namespace {

void InsertRuleList(const std::string& list, std::set<std::string>* out) {
  std::stringstream rules(list);
  std::string rule;
  while (std::getline(rules, rule, ',')) {
    const size_t first = rule.find_first_not_of(' ');
    const size_t last = rule.find_last_not_of(' ');
    if (first == std::string::npos) continue;
    out->insert(rule.substr(first, last - first + 1));
  }
}

}  // namespace

std::vector<std::set<std::string>> ParseLineAllows(
    const std::vector<std::string>& comments) {
  // `allow(` only: the (?!-file) distinction is handled by requiring the
  // char after "allow" to be the open paren.
  static const std::regex kAllow(R"(imr-lint:\s*allow\(([A-Za-z0-9_,\- ]+)\))");
  std::vector<std::set<std::string>> allows(comments.size());
  for (size_t i = 0; i < comments.size(); ++i) {
    std::smatch match;
    if (!std::regex_search(comments[i], match, kAllow)) continue;
    InsertRuleList(match[1].str(), &allows[i]);
  }
  return allows;
}

std::set<std::string> ParseFileAllows(const ScannedFile& scan) {
  static const std::regex kAllowFile(
      R"(imr-lint:\s*allow-file\(([A-Za-z0-9_,\- ]+)\))");
  std::set<std::string> allows;
  for (size_t i = 0; i < scan.comments.size(); ++i) {
    // Stop at the first line that carries code: allow-file is a header
    // declaration, not an inline suppression.
    if (i < scan.code.size() &&
        scan.code[i].find_first_not_of(" \t\r") != std::string::npos) {
      break;
    }
    std::smatch match;
    if (std::regex_search(scan.comments[i], match, kAllowFile)) {
      InsertRuleList(match[1].str(), &allows);
    }
  }
  return allows;
}

std::string RepoRootFor(const std::string& start) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path base = fs::weakly_canonical(start, ec);
  if (ec || base.empty()) base = fs::path(start);
  for (fs::path dir = base;; dir = dir.parent_path()) {
    if (fs::exists(dir / ".git", ec) ||
        (fs::exists(dir / "ROADMAP.md", ec) &&
         fs::is_directory(dir / "src", ec) &&
         fs::is_directory(dir / "tools", ec))) {
      return dir.generic_string();
    }
    if (dir == dir.parent_path()) break;
  }
  return base.generic_string();
}

namespace {

class Linter {
 public:
  Linter(std::string relpath, const std::string& content)
      : relpath_(std::move(relpath)),
        scan_(ScanSource(content)),
        allows_(ParseLineAllows(scan_.comments)),
        file_allows_(ParseFileAllows(scan_)) {}

  std::vector<Finding> Run() {
    const bool in_src = relpath_.rfind("src/", 0) == 0;
    const bool is_rng = relpath_ == "src/util/rng.cc";
    const bool is_logging = relpath_ == "src/util/logging.cc" ||
                            relpath_ == "src/util/logging.h";
    if (!is_rng) CheckRawRandom();
    if (in_src) {
      CheckNakedNewDelete();
      CheckThrow();
      if (!is_logging) CheckIostream();
      CheckMutexGuard();
    }
    if (relpath_ == "src/tensor/ops.cc") CheckKernelAlloc();
    if (relpath_ == "src/nn/optimizer.cc") CheckOptimizerDenseGrad();
    if (relpath_.rfind("src/tensor/simd/", 0) != 0) CheckRawIntrinsics();
    if (relpath_.rfind("src/serve/", 0) == 0) CheckBlockingUnderShardLock();
    CheckIncludeHygiene();
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
              });
    return std::move(findings_);
  }

  /// Include-hygiene needs the raw line: the include path is a string
  /// literal, which Scan() blanks.
  void set_raw_lines(std::vector<std::string> raw) { raw_ = std::move(raw); }

 private:
  void Add(const std::string& rule, size_t line_index, std::string message) {
    // `allow-file` in the header comment suppresses the rule everywhere;
    // `allow` on the offending line or the line directly above suppresses
    // the single occurrence.
    if (file_allows_.count(rule) > 0) return;
    if (line_index < allows_.size() && allows_[line_index].count(rule) > 0)
      return;
    if (line_index > 0 && allows_[line_index - 1].count(rule) > 0) return;
    findings_.push_back(Finding{rule, relpath_,
                                static_cast<int>(line_index) + 1,
                                std::move(message), ""});
  }

  void CheckRawRandom() {
    static const std::regex kPattern(
        R"(std::random_device|\brand\s*\(|\bsrand\s*\(|\btime\s*\(\s*(nullptr|NULL|0)\s*\))");
    for (size_t i = 0; i < scan_.code.size(); ++i) {
      std::smatch match;
      if (std::regex_search(scan_.code[i], match, kPattern)) {
        Add("no-raw-random", i,
            "'" + match[0].str() +
                "' breaks run-to-run determinism; draw randomness from "
                "util::Rng (seeded) instead");
      }
    }
  }

  void CheckNakedNewDelete() {
    static const std::regex kPattern(R"(\b(new|delete)\b)");
    for (size_t i = 0; i < scan_.code.size(); ++i) {
      const std::string& line = scan_.code[i];
      for (auto it = std::sregex_iterator(line.begin(), line.end(), kPattern);
           it != std::sregex_iterator(); ++it) {
        if ((*it)[1].str() == "delete") {
          // `= delete;` (deleted member) is a declaration, not ownership.
          const std::string before = line.substr(0, it->position());
          const size_t last = before.find_last_not_of(' ');
          if (last != std::string::npos && before[last] == '=') continue;
        }
        Add("no-naked-new", i,
            "naked '" + (*it)[1].str() +
                "' in library code; use std::make_unique / containers so "
                "ownership is explicit");
      }
    }
  }

  void CheckThrow() {
    static const std::regex kPattern(R"(\bthrow\b)");
    for (size_t i = 0; i < scan_.code.size(); ++i) {
      if (std::regex_search(scan_.code[i], kPattern)) {
        Add("no-throw", i,
            "library code reports errors through util::Status, not "
            "exceptions");
      }
    }
  }

  void CheckIostream() {
    static const std::regex kPattern(R"(std::(cout|cerr)\b)");
    for (size_t i = 0; i < scan_.code.size(); ++i) {
      std::smatch match;
      if (std::regex_search(scan_.code[i], match, kPattern)) {
        Add("no-iostream", i,
            "'" + match[0].str() +
                "' in library code; log through IMR_LOG so output honors "
                "the global log level");
      }
    }
  }

  void CheckIncludeHygiene() {
    static const std::regex kInclude(
        R"re(^\s*#\s*include\s+(?:<([^>]+)>|"([^"]+)"))re");
    // First path segment of every project include root.
    static const std::set<std::string> kProjectDirs = {
        "datagen", "eval", "graph", "kg",   "nn",    "re",
        "serve",   "tensor", "text", "util", "tools"};
    for (size_t i = 0; i < raw_.size(); ++i) {
      std::smatch match;
      if (!std::regex_search(raw_[i], match, kInclude)) continue;
      const bool angle = match[1].matched;
      const std::string path = angle ? match[1].str() : match[2].str();
      if (path.find("..") != std::string::npos) {
        Add("include-hygiene", i,
            "relative include '" + path +
                "'; use the project-relative path (e.g. \"util/foo.h\")");
        continue;
      }
      if (!angle && path.rfind("src/", 0) == 0) {
        Add("include-hygiene", i,
            "include '" + path + "' spells out src/; the build adds src/ "
                                 "to the include path, write \"" +
                path.substr(4) + "\"");
        continue;
      }
      const size_t slash = path.find('/');
      if (angle && slash != std::string::npos &&
          kProjectDirs.count(path.substr(0, slash)) > 0) {
        Add("include-hygiene", i,
            "project header <" + path + "> included with angle brackets; "
                                        "use quotes");
      }
    }
  }

  // The tensor kernels promise an allocation-free steady state: every
  // buffer comes from tensor/buffer_pool.h. A naked std::vector<float>
  // constructed in src/tensor/ops.cc bypasses the pool and reintroduces a
  // heap allocation on the hot path. Matches `std::vector<float> name(...)`,
  // `std::vector<float> name{...}` and `std::vector<float>(...)`
  // temporaries; declarations initialised from a pool call
  // (`std::vector<float> out = AcquireBuffer(n)`), references, pointers and
  // nested vector types don't construct a fresh buffer and are left alone.
  void CheckKernelAlloc() {
    static const std::regex kPattern(
        R"(std::vector<float>\s*(?:[A-Za-z_]\w*\s*)?[({])");
    for (size_t i = 0; i < scan_.code.size(); ++i) {
      if (std::regex_search(scan_.code[i], kPattern)) {
        Add("kernel-alloc", i,
            "naked std::vector<float> construction on the kernel hot path; "
            "acquire storage from tensor/buffer_pool.h (AcquireBuffer / "
            "AcquireBufferFill) so steady-state steps stay allocation-free");
      }
    }
  }

  // The optimizers promise O(touched rows) updates for row-sparse
  // parameters, so src/nn/optimizer.cc must route every gradient walk
  // through the sanctioned sparse helpers (GradSquaredSum and the
  // grad_is_row_sparse() row loops). A range-for directly over a
  // `.grad()` expression or a `.grad().size()` loop bound is the classic
  // way a dense full-table scan sneaks back in; flag both. A genuinely
  // dense loop belongs in a helper with an
  // `// imr-lint: allow(optimizer-dense-grad)` justification.
  void CheckOptimizerDenseGrad() {
    static const std::regex kRangeFor(
        R"(for\s*\([^;)]*:[^;)]*\.grad\(\))");
    static const std::regex kSizeLoop(R"(\.grad\(\)\s*\.\s*size\s*\()");
    for (size_t i = 0; i < scan_.code.size(); ++i) {
      if (std::regex_search(scan_.code[i], kRangeFor) ||
          std::regex_search(scan_.code[i], kSizeLoop)) {
        Add("optimizer-dense-grad", i,
            "dense full-gradient iteration in the optimizer; row-sparse "
            "parameters must go through the sanctioned sparse helpers "
            "(GradSquaredSum / grad_touched_rows row loops) so embedding "
            "steps stay O(touched rows)");
      }
    }
  }

  // SIMD intrinsics are confined to src/tensor/simd/: every other file
  // must reach vector code through the dispatch table, so a new call site
  // cannot silently skip runtime CPU detection (and the per-TU -mavx2
  // build flags stay limited to the kernel TUs). Matches the x86 SSE/AVX
  // prefixes (_mm_/_mm256_/_mm512_) and the NEON load/store/arithmetic
  // prefixes (v...q_ style like vld1q_f32 / vaddq_f32).
  void CheckRawIntrinsics() {
    static const std::regex kPattern(
        R"(\b(_mm(?:256|512)?_[a-z0-9_]+|v(?:ld|st)[1-4]q?_[a-z0-9_]+|v(?:add|sub|mul|mla|fma|dup|max|min|abs|neg|cvt)q?_[a-z0-9_]+)\s*\()");
    for (size_t i = 0; i < scan_.code.size(); ++i) {
      std::smatch match;
      if (std::regex_search(scan_.code[i], match, kPattern)) {
        Add("raw-intrinsics", i,
            "'" + match[1].str() +
                "' outside src/tensor/simd/; raw SIMD intrinsics live in "
                "the kernel backend TUs and everything else dispatches "
                "through tensor/simd/dispatch.h");
      }
    }
  }

  // A mutex member in a class with no IMR_GUARDED_BY anywhere in the class
  // body means the lock protects... nothing the analysis can see. Either
  // annotate what it guards or document why not (allow).
  void CheckMutexGuard() {
    static const std::regex kMutexMember(
        R"(^\s*(?:mutable\s+)?(?:std::mutex|util::Mutex|Mutex)\s+[A-Za-z_]\w*\s*;)");
    std::string flat;
    std::vector<size_t> line_offset(scan_.code.size() + 1, 0);
    for (size_t i = 0; i < scan_.code.size(); ++i) {
      flat += scan_.code[i];
      flat += '\n';
      line_offset[i + 1] = flat.size();
    }

    struct Region {
      size_t open;
      size_t close;
    };
    std::vector<Region> regions;
    static const std::regex kClassKeyword(R"(\b(class|struct)\b)");
    for (auto it = std::sregex_iterator(flat.begin(), flat.end(),
                                        kClassKeyword);
         it != std::sregex_iterator(); ++it) {
      const size_t keyword_pos = static_cast<size_t>(it->position());
      // `enum class` / `enum struct` define enumerations, not classes.
      size_t back = keyword_pos;
      while (back > 0 && std::isspace(static_cast<unsigned char>(
                             flat[back - 1]))) {
        --back;
      }
      size_t word_begin = back;
      while (word_begin > 0 &&
             (std::isalnum(static_cast<unsigned char>(flat[word_begin - 1])) ||
              flat[word_begin - 1] == '_')) {
        --word_begin;
      }
      if (flat.compare(word_begin, back - word_begin, "enum") == 0) continue;
      // Find the body: the first '{' before any ';' (a ';' first means a
      // forward declaration or friend declaration — no body to scan).
      size_t pos = keyword_pos + it->length();
      while (pos < flat.size() && flat[pos] != '{' && flat[pos] != ';') ++pos;
      if (pos >= flat.size() || flat[pos] == ';') continue;
      size_t depth = 1;
      size_t close = pos + 1;
      while (close < flat.size() && depth > 0) {
        if (flat[close] == '{') ++depth;
        if (flat[close] == '}') --depth;
        ++close;
      }
      regions.push_back(Region{pos, close});
    }

    for (size_t i = 0; i < scan_.code.size(); ++i) {
      if (!std::regex_search(scan_.code[i], kMutexMember)) continue;
      const size_t member_pos = line_offset[i];
      const Region* innermost = nullptr;
      for (const Region& region : regions) {
        if (region.open < member_pos && member_pos < region.close &&
            (innermost == nullptr || region.open > innermost->open)) {
          innermost = &region;
        }
      }
      if (innermost == nullptr) continue;  // namespace-scope mutex
      const std::string body =
          flat.substr(innermost->open, innermost->close - innermost->open);
      if (body.find("IMR_GUARDED_BY") != std::string::npos ||
          body.find("IMR_PT_GUARDED_BY") != std::string::npos) {
        continue;
      }
      Add("mutex-guard", i,
          "mutex member in a class with no IMR_GUARDED_BY-annotated field; "
          "annotate what it protects (util/thread_annotations.h)");
    }
  }

  // Shard mutexes (sharded_cache.h) are leaf locks on the request hot
  // path: every request hashing to a shard serializes behind its holder,
  // so a blocking call made under one (a CondVar wait, file I/O, a
  // snapshot load, a sleep) turns a nanosecond critical section into a
  // convoy. Tracks brace depth through the flattened file: a lock is
  // "shard-scoped" when it is a util::MutexLock whose argument mentions a
  // shard, or a direct `...shard...Lock()` call; blocking patterns are
  // flagged until the lock's scope closes (RAII) or a matching
  // `...shard...Unlock()` runs.
  void CheckBlockingUnderShardLock() {
    std::string flat;
    std::vector<size_t> line_offset;
    line_offset.reserve(scan_.code.size() + 1);
    line_offset.push_back(0);
    for (const std::string& line : scan_.code) {
      flat += line;
      flat += '\n';
      line_offset.push_back(flat.size());
    }
    const auto line_of = [&line_offset](size_t pos) {
      size_t lo = 0, hi = line_offset.size() - 1;
      while (lo + 1 < hi) {
        const size_t mid = (lo + hi) / 2;
        if (line_offset[mid] <= pos) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      return lo;
    };

    enum EventKind { kAcquireScoped, kAcquireManual, kReleaseManual, kBlocks };
    struct Event {
      size_t pos;
      EventKind kind;
      std::string what;
    };
    std::vector<Event> events;
    const auto collect = [&flat, &events](const std::regex& pattern,
                                          EventKind kind) {
      for (auto it = std::sregex_iterator(flat.begin(), flat.end(), pattern);
           it != std::sregex_iterator(); ++it) {
        events.push_back(Event{static_cast<size_t>(it->position()), kind,
                               (*it)[0].str()});
      }
    };
    // `util::MutexLock lock(shard.mutex)` / `(shards_[i]->mutex)` — RAII,
    // held until the enclosing block closes.
    static const std::regex kScoped(
        R"((?:util::)?MutexLock\s+\w+\s*\([^)]*[Ss]hard[^)]*\))");
    // `shard.mutex.Lock()` style — held until Unlock() or scope close.
    static const std::regex kManualLock(
        R"([Ss]hard[\w\[\]().>-]*\s*\.\s*Lock\s*\()");
    static const std::regex kManualUnlock(
        R"([Ss]hard[\w\[\]().>-]*\s*\.\s*Unlock\s*\()");
    // The blocking operations that must never run under a shard lock.
    static const std::regex kBlocking(
        R"(\.\s*Wait(?:Until)?\s*\(|std::[io]?fstream\b|\bfopen\s*\(|\bLoadSnapshot\s*\(|\bsleep_for\b|\bsleep_until\b|\busleep\s*\(|\bsleep\s*\()");
    collect(kScoped, kAcquireScoped);
    collect(kManualLock, kAcquireManual);
    collect(kManualUnlock, kReleaseManual);
    collect(kBlocking, kBlocks);
    if (events.empty()) return;
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.pos < b.pos; });

    struct ActiveLock {
      size_t depth;
      bool manual;
    };
    std::vector<ActiveLock> held;
    size_t depth = 0;
    size_t next_event = 0;
    for (size_t pos = 0; pos < flat.size(); ++pos) {
      while (next_event < events.size() && events[next_event].pos == pos) {
        const Event& event = events[next_event++];
        switch (event.kind) {
          case kAcquireScoped:
            held.push_back(ActiveLock{depth, /*manual=*/false});
            break;
          case kAcquireManual:
            held.push_back(ActiveLock{depth, /*manual=*/true});
            break;
          case kReleaseManual:
            for (size_t h = held.size(); h-- > 0;) {
              if (held[h].manual) {
                held.erase(held.begin() + static_cast<long>(h));
                break;
              }
            }
            break;
          case kBlocks:
            if (!held.empty()) {
              Add("blocking-under-shard-lock", line_of(pos),
                  "'" + event.what +
                      "' while a cache-shard mutex is held; shard locks "
                      "are leaf locks on the request hot path — finish the "
                      "blocking work first, then take the lock");
            }
            break;
        }
      }
      if (flat[pos] == '{') {
        ++depth;
      } else if (flat[pos] == '}') {
        if (depth > 0) --depth;
        while (!held.empty() && held.back().depth > depth) held.pop_back();
      }
    }
  }

  std::string relpath_;
  ScannedFile scan_;
  std::vector<std::set<std::string>> allows_;
  std::set<std::string> file_allows_;
  std::vector<std::string> raw_;
  std::vector<Finding> findings_;
};

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string line;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(line);
      line.clear();
    } else {
      line += c;
    }
  }
  lines.push_back(line);
  return lines;
}

}  // namespace

const std::vector<std::string>& RuleIds() {
  static const std::vector<std::string> kRules = {
      "no-raw-random", "no-naked-new",         "no-throw",
      "no-iostream",   "mutex-guard",          "include-hygiene",
      "kernel-alloc",  "optimizer-dense-grad", "raw-intrinsics",
      "blocking-under-shard-lock"};
  return kRules;
}

std::vector<Finding> LintSource(const std::string& relpath,
                                const std::string& content) {
  Linter linter(relpath, content);
  linter.set_raw_lines(SplitLines(content));
  return linter.Run();
}

std::vector<Finding> LintTree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<Finding> findings;
  std::vector<fs::path> files;
  for (const char* dir : {"src", "tests", "bench", "examples", "tools"}) {
    const fs::path base = fs::path(root) / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".h" || ext == ".cc" || ext == ".cpp") {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  // Findings report paths relative to the repository root (not the walk
  // root and not the invocation directory), so CI diffs and the analysis
  // baseline are stable however the tool is launched.
  const fs::path repo_root = RepoRootFor(root);
  for (const fs::path& path : files) {
    std::error_code rel_ec;
    const fs::path canonical = fs::weakly_canonical(path, rel_ec);
    const std::string relpath =
        fs::relative(rel_ec ? path : canonical, repo_root).generic_string();
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      findings.push_back(
          Finding{"read-error", relpath, 0, "cannot open", ""});
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::vector<Finding> file_findings = LintSource(relpath, buffer.str());
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

std::string FormatFinding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

}  // namespace imr::lint
