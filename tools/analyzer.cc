#include "analyzer.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <tuple>

#include "util/thread_pool.h"

namespace imr::analysis {
namespace {

// Bump whenever the model or the pass-1 rule set cached with it changes.
constexpr uint64_t kModelFormatVersion = 2;
constexpr size_t kNpos = static_cast<size_t>(-1);

// ---- tokenizer -----------------------------------------------------------

struct Tok {
  std::string text;
  int line = 0;  // 1-based
};

bool IsIdentText(const std::string& t) {
  if (t.empty()) return false;
  const unsigned char c0 = static_cast<unsigned char>(t[0]);
  if (!std::isalpha(c0) && c0 != '_') return false;
  for (char ch : t) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (!std::isalnum(c) && c != '_') return false;
  }
  return true;
}

/// Blanks preprocessor lines (including `\` continuations) so `#define`
/// bodies never unbalance the brace tracking, then splits the remaining
/// code into identifier / number / punctuation tokens. `::` and `->` are
/// kept as single tokens; every other punctuation char stands alone.
std::vector<Tok> Tokenize(std::vector<std::string> code) {
  bool continuation = false;
  for (std::string& line : code) {
    const size_t first = line.find_first_not_of(" \t\r");
    const bool directive =
        !continuation && first != std::string::npos && line[first] == '#';
    if (directive || continuation) {
      continuation = !line.empty() && line.back() == '\\';
      line.assign(line.size(), ' ');
    } else {
      continuation = false;
    }
  }
  std::vector<Tok> toks;
  for (size_t li = 0; li < code.size(); ++li) {
    const std::string& s = code[li];
    const int line = static_cast<int>(li) + 1;
    size_t i = 0;
    while (i < s.size()) {
      const unsigned char c = static_cast<unsigned char>(s[i]);
      if (std::isspace(c)) {
        ++i;
        continue;
      }
      if (std::isalpha(c) || c == '_') {
        size_t j = i + 1;
        while (j < s.size()) {
          const unsigned char d = static_cast<unsigned char>(s[j]);
          if (!std::isalnum(d) && d != '_') break;
          ++j;
        }
        toks.push_back(Tok{s.substr(i, j - i), line});
        i = j;
        continue;
      }
      if (std::isdigit(c)) {
        size_t j = i + 1;
        while (j < s.size()) {
          const unsigned char d = static_cast<unsigned char>(s[j]);
          if (!std::isalnum(d) && d != '.' && d != '\'') break;
          ++j;
        }
        toks.push_back(Tok{s.substr(i, j - i), line});
        i = j;
        continue;
      }
      if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
        toks.push_back(Tok{"::", line});
        i += 2;
        continue;
      }
      if (c == '-' && i + 1 < s.size() && s[i + 1] == '>') {
        toks.push_back(Tok{"->", line});
        i += 2;
        continue;
      }
      toks.push_back(Tok{std::string(1, static_cast<char>(c)), line});
      ++i;
    }
  }
  return toks;
}

// ---- structural parser ---------------------------------------------------

const std::set<std::string>& CallKeywords() {
  static const std::set<std::string> kWords = {
      "if",     "for",      "while",   "switch",        "return",
      "sizeof", "alignof",  "alignas", "decltype",      "catch",
      "new",    "delete",   "throw",   "static_assert", "noexcept",
      "defined"};
  return kWords;
}

class FileParser {
 public:
  explicit FileParser(std::vector<Tok> toks) : toks_(std::move(toks)) {}

  void Parse(FileModel* out) {
    out_ = out;
    size_t i = 0;
    while (i < toks_.size()) {
      const std::string& t = Text(i);
      if (t == "template" && Text(i + 1) == "<") {
        i = MatchAngleFwd(i + 1) + 1;
      } else if (t == "namespace") {
        i = HandleNamespace(i);
      } else if (t == "class" || t == "struct" || t == "union") {
        i = HandleClass(i);
      } else if (t == "enum") {
        i = HandleEnum(i);
      } else if (t == "using" || t == "typedef" || t == "friend" ||
                 t == "static_assert" || t == "=") {
        i = SkipToStatementEnd(i) + 1;
      } else if (t == "{") {
        scopes_.push_back(Scope{Scope::kBlock, ""});
        ++i;
      } else if (t == "}") {
        if (!scopes_.empty()) scopes_.pop_back();
        ++i;
      } else if (t == "(") {
        i = HandleParen(i);
      } else {
        ++i;
      }
    }
  }

 private:
  struct Scope {
    enum Kind { kNamespace, kClass, kBlock };
    Kind kind;
    std::string name;
  };

  const std::string& Text(size_t i) const {
    static const std::string kEmpty;
    return i < toks_.size() ? toks_[i].text : kEmpty;
  }
  int Line(size_t i) const {
    return i < toks_.size() ? toks_[i].line : 0;
  }

  // -- balanced-token matching (forward returns the closer's index, or the
  // last token when unbalanced; backward returns the opener's index or
  // kNpos) --

  size_t MatchFwd(size_t i, const char* open, const char* close) const {
    int depth = 1;
    size_t j = i + 1;
    for (; j < toks_.size(); ++j) {
      if (Text(j) == open) ++depth;
      else if (Text(j) == close && --depth == 0) return j;
    }
    return toks_.empty() ? 0 : toks_.size() - 1;
  }
  size_t MatchParenFwd(size_t i) const { return MatchFwd(i, "(", ")"); }
  size_t MatchBraceFwd(size_t i) const { return MatchFwd(i, "{", "}"); }
  size_t MatchAngleFwd(size_t i) const { return MatchFwd(i, "<", ">"); }

  size_t MatchBack(size_t i, const char* open, const char* close) const {
    int depth = 1;
    size_t j = i;
    while (j > 0) {
      --j;
      if (Text(j) == close) ++depth;
      else if (Text(j) == open && --depth == 0) return j;
    }
    return kNpos;
  }
  size_t MatchParenBack(size_t i) const { return MatchBack(i, "(", ")"); }
  size_t MatchBracketBack(size_t i) const { return MatchBack(i, "[", "]"); }
  size_t MatchAngleBack(size_t i) const { return MatchBack(i, "<", ">"); }

  /// Index of the `;` ending the statement starting at `i` (brackets of
  /// all three kinds balanced), or the index just before a `}` that would
  /// close the enclosing scope.
  size_t SkipToStatementEnd(size_t i) const {
    int depth = 0;
    for (size_t j = i; j < toks_.size(); ++j) {
      const std::string& u = Text(j);
      if (u == "(" || u == "{" || u == "[") ++depth;
      else if (u == ")" || u == "]") --depth;
      else if (u == "}") {
        if (depth == 0) return j == 0 ? 0 : j - 1;
        --depth;
      } else if (u == ";" && depth == 0) {
        return j;
      }
    }
    return toks_.empty() ? 0 : toks_.size() - 1;
  }

  size_t HandleNamespace(size_t i) {
    size_t j = i + 1;
    std::string name;
    while (IsIdentText(Text(j)) || Text(j) == "::") {
      name += Text(j);
      ++j;
    }
    if (Text(j) == "{") {
      scopes_.push_back(Scope{Scope::kNamespace, name});
      return j + 1;
    }
    return SkipToStatementEnd(j) + 1;  // namespace alias
  }

  size_t HandleClass(size_t i) {
    size_t j = i + 1;
    std::string name;
    bool frozen = false;  // name fixed once the base clause starts
    while (j < toks_.size()) {
      const std::string& u = Text(j);
      if (u == "{") {
        scopes_.push_back(Scope{Scope::kClass, name});
        return j + 1;
      }
      if (u == ";") return j + 1;  // forward declaration
      if (u == "(") {
        j = MatchParenFwd(j) + 1;  // attribute macro
        continue;
      }
      if (u == "<") {
        j = MatchAngleFwd(j) + 1;  // specialization args
        continue;
      }
      if (u == ":") frozen = true;
      if (IsIdentText(u) && !frozen) name = u;
      ++j;
    }
    return j;
  }

  size_t HandleEnum(size_t i) {
    size_t j = i + 1;
    while (j < toks_.size() && Text(j) != "{" && Text(j) != ";") ++j;
    if (Text(j) == "{") return MatchBraceFwd(j) + 1;
    return j + 1;
  }

  /// From the first token after a ctor-init-list `:`, returns the index
  /// of the body `{` (skipping initializer parens and brace-inits).
  size_t SkipInitList(size_t j) const {
    while (j < toks_.size()) {
      const std::string& u = Text(j);
      if (u == "{") {
        if (j > 0 && (IsIdentText(Text(j - 1)) || Text(j - 1) == ">")) {
          j = MatchBraceFwd(j) + 1;  // brace-initializer
          continue;
        }
        return j;  // function body
      }
      if (u == "(") {
        j = MatchParenFwd(j) + 1;
        continue;
      }
      if (u == ";") return j;
      ++j;
    }
    return j;
  }

  std::string EnclosingClass() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->name;
      if (it->kind == Scope::kBlock) continue;
      break;  // namespace: no enclosing class
    }
    return "";
  }

  std::string QualifiedName(const std::string& name) const {
    std::string out;
    for (const Scope& s : scopes_) {
      if (s.name.empty()) continue;
      out += s.name;
      out += "::";
    }
    return out + name;
  }

  /// A `(` at declaration scope: either a function definition (parse the
  /// body) or a declaration/initializer (skip). Returns the next index.
  size_t HandleParen(size_t open) {
    // -- backward: declarator name --
    size_t k = open;
    std::string simple;
    if (k > 0 && IsIdentText(Text(k - 1))) {
      simple = Text(k - 1);
      --k;
      if (k > 0 && Text(k - 1) == "~") {
        simple = "~" + simple;
        --k;
      }
    } else {
      for (size_t back = 1; back <= 3 && back <= k; ++back) {
        if (Text(k - back) == "operator") {
          std::string sym;
          for (size_t q = k - back + 1; q < k; ++q) sym += Text(q);
          simple = "operator" + sym;
          k -= back;
          break;
        }
      }
    }
    std::string name = simple;
    std::string cls_qual;
    if (!simple.empty()) {
      while (k >= 2 && Text(k - 1) == "::") {
        size_t q = k - 2;
        std::string qual;
        if (Text(q) == ">") {
          const size_t lt = MatchAngleBack(q);
          if (lt == kNpos || lt == 0 || !IsIdentText(Text(lt - 1))) break;
          qual = Text(lt - 1);
          q = lt - 1;
        } else if (IsIdentText(Text(q))) {
          qual = Text(q);
        } else {
          break;
        }
        if (cls_qual.empty()) cls_qual = qual;  // innermost qualifier
        name = qual + "::" + name;
        k = q;
      }
    }
    // -- return type: scan back from the declarator for Status/StatusOr --
    bool returns_status = false;
    for (size_t back = 1; back <= 12 && back <= k; ++back) {
      const std::string& u = Text(k - back);
      if (u == ";" || u == "}" || u == "{" || u == ")" || u == ":") break;
      if (u == "Status" || u == "StatusOr") returns_status = true;
    }
    // -- forward: declaration vs definition --
    const size_t close = MatchParenFwd(open);
    size_t j = close + 1;
    bool body = false;
    while (j < toks_.size()) {
      const std::string& u = Text(j);
      if (u == "{") {
        body = true;
        break;
      }
      if (u == ";") break;
      if (u == "=") {
        j = SkipToStatementEnd(j);  // = default / delete / 0, or var init
        break;
      }
      if (u == ":") {
        j = SkipInitList(j + 1);
        body = Text(j) == "{";
        break;
      }
      if (u == "(" || (IsIdentText(u) && Text(j + 1) == "(")) {
        j = MatchParenFwd(u == "(" ? j : j + 1) + 1;  // noexcept/macro args
        continue;
      }
      ++j;
    }
    if (!body) return j + 1;
    if (simple.empty()) {
      scopes_.push_back(Scope{Scope::kBlock, ""});
      return j + 1;
    }
    FunctionModel fn;
    fn.name = simple;
    fn.class_name = !cls_qual.empty() ? cls_qual : EnclosingClass();
    fn.qualified = QualifiedName(name);
    fn.returns_status = returns_status;
    fn.line = Line(open);
    const size_t end = ParseBody(j, &fn);
    out_->functions.push_back(std::move(fn));
    return end + 1;
  }

  struct HeldLock {
    std::string mutex;
    int depth = 0;
    bool scoped = false;
  };

  std::vector<std::string> HeldNames(const std::vector<HeldLock>& held) const {
    std::vector<std::string> out;
    out.reserve(held.size());
    for (const HeldLock& h : held) out.push_back(h.mutex);
    return out;
  }

  /// Canonical mutex spelling for the token range [b, e): whitespace-free,
  /// `->` folded to `.`, subscripts to `[]`, `this.` and leading `&`/`*`
  /// stripped; a bare identifier is prefixed with the enclosing class so
  /// `mu_` and `other.mu_` in different methods of one class agree.
  std::string CanonRange(size_t b, size_t e, const std::string& cls) const {
    std::string s;
    for (size_t j = b; j < e && j < toks_.size(); ++j) {
      const std::string& t = Text(j);
      if (t == "->") {
        s += ".";
      } else if (t == "[") {
        s += "[]";
        j = MatchFwd(j, "[", "]");
      } else {
        s += t;
      }
    }
    while (!s.empty() && (s[0] == '&' || s[0] == '*')) s.erase(0, 1);
    if (s.rfind("this.", 0) == 0) s.erase(0, 5);
    if (IsIdentText(s) && !cls.empty()) s = cls + "::" + s;
    return s;
  }

  /// Start of the receiver expression whose last token is at `e`
  /// (exclusive): walks back over `a.b->c[i]`, `f(x).m` chains.
  size_t ReceiverBegin(size_t e) const {
    size_t b = e;
    while (b > 0) {
      const std::string& p = Text(b - 1);
      if (p == "]") {
        const size_t o = MatchBracketBack(b - 1);
        if (o == kNpos) break;
        b = o;
      } else if (p == ")") {
        const size_t o = MatchParenBack(b - 1);
        if (o == kNpos) break;
        b = o;
      } else if (IsIdentText(p) || p == "this" || p == "." || p == "->" ||
                 p == "::") {
        --b;
      } else {
        break;
      }
    }
    return b;
  }

  struct PendingStatus {
    std::string var;
    int line = 0;
    bool typed = false;
    std::string init_callee;
    size_t stmt_end = 0;
  };

  /// Walks one function body from its `{` at `open`; records call sites,
  /// lock acquisitions/releases (with the held set replayed by brace
  /// depth), blocking ops, pool-bypassing allocations, and Status locals.
  /// Returns the index of the closing `}`.
  size_t ParseBody(size_t open, FunctionModel* fn) {
    const std::string& cls = fn->class_name;
    std::vector<HeldLock> held;
    std::vector<PendingStatus> pending;
    int depth = 1;
    std::string prev = "{";
    size_t i = open + 1;
    while (i < toks_.size() && depth > 0) {
      const std::string& t = Text(i);
      const bool stmt_start = prev == "{" || prev == ";" || prev == "}";
      if (t == "{") {
        ++depth;
      } else if (t == "}") {
        --depth;
        while (!held.empty() && held.back().depth > depth) held.pop_back();
        if (depth == 0) break;
      } else if (t == "MutexLock" && IsIdentText(Text(i + 1)) &&
                 Text(i + 2) == "(") {
        const size_t close = MatchParenFwd(i + 2);
        const std::string canon = CanonRange(i + 3, close, cls);
        if (!canon.empty()) {
          fn->acquires.push_back(
              LockAcquire{canon, Line(i), true, HeldNames(held)});
          held.push_back(HeldLock{canon, depth, true});
        }
        i = close;
      } else if ((t == "." || t == "->") &&
                 (Text(i + 1) == "Lock" || Text(i + 1) == "Unlock") &&
                 Text(i + 2) == "(") {
        const std::string canon = CanonRange(ReceiverBegin(i), i, cls);
        if (!canon.empty()) {
          if (Text(i + 1) == "Lock") {
            fn->acquires.push_back(
                LockAcquire{canon, Line(i), false, HeldNames(held)});
            held.push_back(HeldLock{canon, depth, false});
          } else {
            // release the most recent manual hold of this mutex
            for (size_t h = held.size(); h-- > 0;) {
              if (!held[h].scoped && held[h].mutex == canon) {
                held.erase(held.begin() + static_cast<ptrdiff_t>(h));
                break;
              }
            }
          }
        }
        i = MatchParenFwd(i + 2);
      } else if ((t == "." || t == "->") &&
                 (Text(i + 1) == "Wait" || Text(i + 1) == "WaitUntil") &&
                 Text(i + 2) == "(") {
        fn->blocking.push_back(
            BlockingOp{"CondVar::Wait", Line(i + 1), HeldNames(held)});
      } else if ((t == "sleep_for" || t == "sleep_until" || t == "usleep" ||
                  t == "nanosleep" || t == "sleep") &&
                 Text(i + 1) == "(") {
        fn->blocking.push_back(BlockingOp{"sleep", Line(i), HeldNames(held)});
      } else if ((t == "ifstream" || t == "ofstream" || t == "fstream") &&
                 IsIdentText(Text(i + 1))) {
        fn->blocking.push_back(
            BlockingOp{"std::" + t, Line(i), HeldNames(held)});
      } else if (t == "fopen" && Text(i + 1) == "(") {
        fn->blocking.push_back(BlockingOp{"fopen", Line(i), HeldNames(held)});
      } else if (t == "LoadSnapshot" && Text(i + 1) == "(") {
        fn->blocking.push_back(
            BlockingOp{"LoadSnapshot", Line(i), HeldNames(held)});
        fn->calls.push_back(CallSite{t, Line(i), HeldNames(held)});
      } else if (t == "new") {
        fn->allocs.push_back(AllocOp{"new", Line(i)});
      } else if ((t == "malloc" || t == "calloc" || t == "realloc") &&
                 Text(i + 1) == "(") {
        fn->allocs.push_back(AllocOp{t, Line(i)});
      } else if (t == "vector" && Text(i + 1) == "<" &&
                 Text(i + 2) == "float" && Text(i + 3) == ">" &&
                 (IsIdentText(Text(i + 4)) || Text(i + 4) == "(")) {
        // `std::vector<float> out = AcquireBuffer*(...)` is the sanctioned
        // pool path (same exemption as pass 1's kernel-alloc rule)
        if (!(Text(i + 5) == "=" &&
              Text(i + 6).rfind("AcquireBuffer", 0) == 0)) {
          fn->allocs.push_back(AllocOp{"std::vector<float>", Line(i)});
        }
      } else if (stmt_start && (HandleStatusDecl(i, &pending) ||
                                HandleAutoDecl(i, &pending))) {
        // declaration recorded; initializer tokens still flow through the
        // loop so calls inside it are seen
        if (IsIdentText(t) && Text(i + 1) == "(" &&
            CallKeywords().count(t) == 0) {
          fn->calls.push_back(CallSite{t, Line(i), HeldNames(held)});
        }
      } else if (IsIdentText(t) && Text(i + 1) == "(" &&
                 CallKeywords().count(t) == 0) {
        fn->calls.push_back(CallSite{t, Line(i), HeldNames(held)});
      }
      prev = Text(i);
      ++i;
    }
    const size_t body_close = std::min(i, toks_.size() - 1);
    for (const PendingStatus& p : pending) {
      bool read = false;
      for (size_t j = p.stmt_end + 1; j < body_close; ++j) {
        if (Text(j) == p.var) {
          read = true;
          break;
        }
      }
      fn->status_locals.push_back(
          StatusLocal{p.var, p.line, read, p.typed, p.init_callee});
    }
    return body_close;
  }

  /// `util::Status s = ...;` / `StatusOr<T> v(...);` at statement start.
  bool HandleStatusDecl(size_t i, std::vector<PendingStatus>* pending) {
    size_t j = i;
    while (IsIdentText(Text(j)) && Text(j) != "Status" &&
           Text(j) != "StatusOr" && Text(j + 1) == "::") {
      j += 2;
    }
    if (Text(j) != "Status" && Text(j) != "StatusOr") return false;
    size_t k = j + 1;
    if (Text(j) == "StatusOr") {
      if (Text(k) != "<") return false;
      k = MatchAngleFwd(k) + 1;
    }
    if (!IsIdentText(Text(k)) || CallKeywords().count(Text(k)) > 0) {
      return false;
    }
    const std::string& nx = Text(k + 1);
    if (nx != "=" && nx != "(" && nx != "{") return false;
    if (nx == "(" && Text(k + 2) == ")") return false;  // local fn decl
    pending->push_back(
        PendingStatus{Text(k), Line(k), true, "", SkipToStatementEnd(k)});
    return true;
  }

  /// `auto s = Call(...);` — flagged later iff the initializing call
  /// resolves to a Status-returning function.
  bool HandleAutoDecl(size_t i, std::vector<PendingStatus>* pending) {
    if (Text(i) != "auto" || !IsIdentText(Text(i + 1)) || Text(i + 2) != "=") {
      return false;
    }
    const size_t stmt_end = SkipToStatementEnd(i);
    std::string callee;
    for (size_t j = i + 3; j < stmt_end; ++j) {
      if (IsIdentText(Text(j)) && Text(j + 1) == "(" &&
          CallKeywords().count(Text(j)) == 0) {
        callee = Text(j);
        break;
      }
    }
    if (callee.empty()) return false;
    pending->push_back(
        PendingStatus{Text(i + 1), Line(i + 1), false, callee, stmt_end});
    return true;
  }

  std::vector<Tok> toks_;
  std::vector<Scope> scopes_;
  FileModel* out_ = nullptr;
};

// ---- whole-program analyses ----------------------------------------------

struct GlobalFn {
  const FileModel* file = nullptr;
  const FunctionModel* fn = nullptr;
};

struct Program {
  std::vector<GlobalFn> fns;
  std::map<std::string, std::vector<int>> by_name;
  std::vector<std::vector<std::vector<int>>> resolved;  // [fn][call] -> ids
};

/// Call-edge resolution: same-class candidates win, then same-file, then
/// the full candidate set — and a tier is only accepted when all of its
/// candidates share one class (an overload set); otherwise the name is
/// ambiguous and resolves to nothing.
std::vector<int> ResolveCall(const Program& prog, int caller,
                             const std::string& callee) {
  const auto it = prog.by_name.find(callee);
  if (it == prog.by_name.end()) return {};
  const GlobalFn& from = prog.fns[static_cast<size_t>(caller)];
  auto one_class = [&](const std::vector<int>& ids) {
    for (int id : ids) {
      if (prog.fns[static_cast<size_t>(id)].fn->class_name !=
          prog.fns[static_cast<size_t>(ids[0])].fn->class_name) {
        return false;
      }
    }
    return !ids.empty();
  };
  std::vector<int> same_class;
  std::vector<int> same_file;
  for (int id : it->second) {
    const GlobalFn& cand = prog.fns[static_cast<size_t>(id)];
    if (id == caller) continue;  // self-recursion adds nothing
    if (!from.fn->class_name.empty() &&
        cand.fn->class_name == from.fn->class_name) {
      same_class.push_back(id);
    }
    if (cand.file == from.file) same_file.push_back(id);
  }
  if (!same_class.empty()) return same_class;
  if (one_class(same_file)) return same_file;
  std::vector<int> all;
  for (int id : it->second) {
    if (id != caller) all.push_back(id);
  }
  if (one_class(all)) return all;
  return {};
}

Program BuildProgram(const std::vector<FileModel>& models) {
  Program prog;
  for (const FileModel& m : models) {
    for (const FunctionModel& f : m.functions) {
      prog.by_name[f.name].push_back(static_cast<int>(prog.fns.size()));
      prog.fns.push_back(GlobalFn{&m, &f});
    }
  }
  prog.resolved.resize(prog.fns.size());
  for (size_t f = 0; f < prog.fns.size(); ++f) {
    const FunctionModel& fn = *prog.fns[f].fn;
    prog.resolved[f].reserve(fn.calls.size());
    for (const CallSite& cs : fn.calls) {
      prog.resolved[f].push_back(
          ResolveCall(prog, static_cast<int>(f), cs.callee));
    }
  }
  return prog;
}

std::string JoinChain(const Program& prog, const std::vector<int>& path) {
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i) out += " -> ";
    out += prog.fns[static_cast<size_t>(path[i])].fn->qualified;
  }
  return out;
}

struct AcqEvidence {
  std::string file;
  int line = 0;
  std::vector<int> path;  // caller chain down to the acquiring function
};

void LockOrderAnalysis(const Program& prog,
                       std::vector<lint::Finding>* findings) {
  const size_t n = prog.fns.size();
  // all mutexes each function may acquire, directly or transitively
  std::vector<std::map<std::string, AcqEvidence>> acq(n);
  for (size_t f = 0; f < n; ++f) {
    const GlobalFn& g = prog.fns[f];
    for (const LockAcquire& a : g.fn->acquires) {
      if (acq[f].count(a.mutex) == 0) {
        acq[f][a.mutex] =
            AcqEvidence{g.file->path, a.line, {static_cast<int>(f)}};
      }
    }
  }
  bool changed = true;
  for (int round = 0; changed && round < 64; ++round) {
    changed = false;
    for (size_t f = 0; f < n; ++f) {
      for (const std::vector<int>& targets : prog.resolved[f]) {
        for (int t : targets) {
          for (const auto& [mu, ev] : acq[static_cast<size_t>(t)]) {
            if (acq[f].count(mu) > 0) continue;
            AcqEvidence up = ev;
            up.path.insert(up.path.begin(), static_cast<int>(f));
            acq[f][mu] = std::move(up);
            changed = true;
          }
        }
      }
    }
  }
  // held -> acquired edges
  struct EdgeEv {
    std::string file;
    int line = 0;
    std::vector<int> chain;
  };
  std::map<std::pair<std::string, std::string>, EdgeEv> edges;
  auto add_edge = [&](const std::string& held, const std::string& got,
                      const EdgeEv& ev) {
    if (held == got) return;
    edges.emplace(std::make_pair(held, got), ev);  // first evidence wins
  };
  for (size_t f = 0; f < n; ++f) {
    const GlobalFn& g = prog.fns[f];
    for (const LockAcquire& a : g.fn->acquires) {
      for (const std::string& h : a.held) {
        add_edge(h, a.mutex,
                 EdgeEv{g.file->path, a.line, {static_cast<int>(f)}});
      }
    }
    for (size_t c = 0; c < g.fn->calls.size(); ++c) {
      const CallSite& cs = g.fn->calls[c];
      if (cs.held.empty()) continue;
      for (int t : prog.resolved[f][c]) {
        for (const auto& [mu, ev] : acq[static_cast<size_t>(t)]) {
          for (const std::string& h : cs.held) {
            EdgeEv e{ev.file, ev.line, ev.path};
            e.chain.insert(e.chain.begin(), static_cast<int>(f));
            add_edge(h, mu, e);
          }
        }
      }
    }
  }
  // cycle detection via pairwise reachability (graphs are tiny)
  std::map<std::string, std::set<std::string>> adj;
  std::set<std::string> nodes;
  for (const auto& [e, ev] : edges) {
    adj[e.first].insert(e.second);
    nodes.insert(e.first);
    nodes.insert(e.second);
  }
  std::map<std::string, std::set<std::string>> reach;
  for (const std::string& s : nodes) {
    std::deque<std::string> queue(adj[s].begin(), adj[s].end());
    std::set<std::string>& r = reach[s];
    r.insert(adj[s].begin(), adj[s].end());
    while (!queue.empty()) {
      const std::string u = queue.front();
      queue.pop_front();
      for (const std::string& v : adj[u]) {
        if (r.insert(v).second) queue.push_back(v);
      }
    }
  }
  // group mutually-reachable nodes; one finding per cyclic group
  std::set<std::string> grouped;
  for (const std::string& s : nodes) {
    if (grouped.count(s) > 0 || reach[s].count(s) == 0) continue;
    std::vector<std::string> group;
    for (const std::string& v : nodes) {
      if (reach[s].count(v) > 0 && reach[v].count(s) > 0) {
        group.push_back(v);
        grouped.insert(v);
      }
    }
    // shortest cycle through the group leader, by BFS inside the group
    const std::set<std::string> in_group(group.begin(), group.end());
    std::map<std::string, std::string> parent;
    std::deque<std::string> queue = {s};
    std::string back_from;
    std::set<std::string> seen = {s};
    while (!queue.empty() && back_from.empty()) {
      const std::string u = queue.front();
      queue.pop_front();
      for (const std::string& v : adj[u]) {
        if (v == s) {
          back_from = u;
          break;
        }
        if (in_group.count(v) > 0 && seen.insert(v).second) {
          parent[v] = u;
          queue.push_back(v);
        }
      }
    }
    std::vector<std::string> cycle = {s};
    if (!back_from.empty()) {
      std::vector<std::string> tail;
      for (std::string u = back_from; u != s; u = parent[u]) {
        tail.push_back(u);
      }
      cycle.insert(cycle.end(), tail.rbegin(), tail.rend());
    }
    cycle.push_back(s);
    std::string msg = "potential deadlock, lock-order cycle: ";
    for (size_t i = 0; i + 1 < cycle.size(); ++i) {
      if (i) msg += ", then ";
      msg += cycle[i] + " -> " + cycle[i + 1];
      const auto it = edges.find({cycle[i], cycle[i + 1]});
      if (it != edges.end()) {
        msg += " (" + it->second.file + ":" +
               std::to_string(it->second.line) + " via " +
               JoinChain(prog, it->second.chain) + ")";
      }
    }
    std::string key;
    for (const std::string& v : group) {
      if (!key.empty()) key += "<->";
      key += v;
    }
    const auto first_edge = edges.find({cycle[0], cycle[1]});
    lint::Finding f;
    f.rule = "lock-order-cycle";
    f.file = first_edge != edges.end() ? first_edge->second.file : "";
    f.line = first_edge != edges.end() ? first_edge->second.line : 0;
    f.message = msg;
    f.key = key;
    findings->push_back(std::move(f));
  }
}

const std::vector<EntryPoint>& DefaultEntries() {
  static const std::vector<EntryPoint> kEntries = {
      {"Trainer", "Train"},
      {"Trainer", "ParallelBatchStep"},
      {"InferenceEngine", "Predict"},
      // ANN query paths promise an allocation-free steady state (the
      // bench_ann p99 gate depends on it); "Search" also covers
      // SearchBatch via prefix match, and AnnIndex holds the SearchBatch
      // default IvfIndex inherits.
      {"AnnIndex", "Search"},
      {"FlatIndex", "Search"},
      {"IvfIndex", "Search"},
      {"KnnPredictor", "Interpolate"},
  };
  return kEntries;
}

void HotPathAnalysis(const Program& prog,
                     const std::vector<EntryPoint>& entries,
                     std::vector<lint::Finding>* findings) {
  const size_t n = prog.fns.size();
  std::vector<int> parent(n, -1);
  std::vector<int> root(n, -1);
  std::vector<char> visited(n, 0);
  std::deque<int> queue;
  std::vector<int> order;
  for (const EntryPoint& e : entries) {
    for (size_t f = 0; f < n; ++f) {
      const FunctionModel& fn = *prog.fns[f].fn;
      if (fn.class_name == e.class_name &&
          fn.name.rfind(e.name_prefix, 0) == 0 && !visited[f]) {
        visited[f] = 1;
        root[f] = static_cast<int>(f);
        queue.push_back(static_cast<int>(f));
        order.push_back(static_cast<int>(f));
      }
    }
  }
  while (!queue.empty()) {
    const int f = queue.front();
    queue.pop_front();
    for (const std::vector<int>& targets :
         prog.resolved[static_cast<size_t>(f)]) {
      for (int t : targets) {
        if (visited[static_cast<size_t>(t)]) continue;
        visited[static_cast<size_t>(t)] = 1;
        parent[static_cast<size_t>(t)] = f;
        root[static_cast<size_t>(t)] = root[static_cast<size_t>(f)];
        queue.push_back(t);
        order.push_back(t);
      }
    }
  }
  auto chain_of = [&](int f) {
    std::vector<int> path;
    for (int u = f; u != -1; u = parent[static_cast<size_t>(u)]) {
      path.push_back(u);
    }
    std::reverse(path.begin(), path.end());
    return path;
  };
  for (int f : order) {
    const GlobalFn& g = prog.fns[static_cast<size_t>(f)];
    const std::string chain = JoinChain(prog, chain_of(f));
    const std::string root_q =
        prog.fns[static_cast<size_t>(root[static_cast<size_t>(f)])]
            .fn->qualified;
    for (const BlockingOp& b : g.fn->blocking) {
      lint::Finding out;
      out.rule = "hot-path-blocking";
      out.file = g.file->path;
      out.line = b.line;
      out.message = "blocking call (" + b.what +
                    ") reachable from hot-path entry point: " + chain;
      out.key = root_q + "->" + g.fn->qualified + ":" + b.what;
      findings->push_back(std::move(out));
    }
    for (const AllocOp& a : g.fn->allocs) {
      lint::Finding out;
      out.rule = "hot-path-alloc";
      out.file = g.file->path;
      out.line = a.line;
      out.message = "pool-bypassing allocation (" + a.what +
                    ") reachable from hot-path entry point: " + chain;
      out.key = root_q + "->" + g.fn->qualified + ":" + a.what;
      findings->push_back(std::move(out));
    }
  }
}

void StatusDropAnalysis(const Program& prog,
                        std::vector<lint::Finding>* findings) {
  for (size_t f = 0; f < prog.fns.size(); ++f) {
    const GlobalFn& g = prog.fns[f];
    for (const StatusLocal& sl : g.fn->status_locals) {
      if (sl.read) continue;
      if (!sl.typed) {
        bool status_call = false;
        for (int t : ResolveCall(prog, static_cast<int>(f), sl.init_callee)) {
          if (prog.fns[static_cast<size_t>(t)].fn->returns_status) {
            status_call = true;
          }
        }
        if (!status_call) continue;
      }
      lint::Finding out;
      out.rule = "status-drop";
      out.file = g.file->path;
      out.line = sl.line;
      out.message = "Status local '" + sl.var + "' in " + g.fn->qualified +
                    " is assigned but never read; propagate it or discard "
                    "explicitly with (void) and a comment";
      out.key = g.file->path + "#" + g.fn->qualified + "#" + sl.var;
      findings->push_back(std::move(out));
    }
  }
}

// ---- model cache ---------------------------------------------------------

std::string EscapeField(const std::string& s) {
  if (s.empty()) return "%-";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case ' ': out += "%20"; break;
      case ',': out += "%2C"; break;
      case '\n': out += "%0A"; break;
      case '\t': out += "%09"; break;
      case '\r': out += "%0D"; break;
      default: out += c;
    }
  }
  return out;
}

std::string UnescapeField(const std::string& s) {
  if (s == "%-") return "";
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const std::string hex = s.substr(i + 1, 2);
      char c = '\0';
      if (hex == "25") c = '%';
      else if (hex == "20") c = ' ';
      else if (hex == "2C") c = ',';
      else if (hex == "0A") c = '\n';
      else if (hex == "09") c = '\t';
      else if (hex == "0D") c = '\r';
      if (c != '\0') {
        out += c;
        i += 2;
        continue;
      }
    }
    out += s[i];
  }
  return out;
}

std::string EncodeHeld(const std::vector<std::string>& held) {
  if (held.empty()) return "%-";
  std::string out;
  for (size_t i = 0; i < held.size(); ++i) {
    if (i) out += ",";
    out += EscapeField(held[i]);
  }
  return out;
}

std::vector<std::string> DecodeHeld(const std::string& s) {
  std::vector<std::string> out;
  if (s == "%-") return out;
  std::stringstream ss(s);
  std::string part;
  while (std::getline(ss, part, ',')) out.push_back(UnescapeField(part));
  return out;
}

constexpr const char* kCacheHeader = "imr-analysis-cache v1";

void SaveCacheFile(const std::string& path,
                   const std::vector<FileModel>& models) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << kCacheHeader << "\n";
    for (const FileModel& m : models) {
      out << "F " << EscapeField(m.path) << " " << m.hash << "\n";
      for (const std::string& a : m.file_allows) {
        out << "A " << EscapeField(a) << "\n";
      }
      for (const auto& [line, rules] : m.line_allows) {
        out << "W " << line << " "
            << EncodeHeld({rules.begin(), rules.end()}) << "\n";
      }
      for (const lint::Finding& f : m.lint_findings) {
        out << "L " << EscapeField(f.rule) << " " << f.line << " "
            << EscapeField(f.key) << " " << EscapeField(f.message) << "\n";
      }
      for (const FunctionModel& fn : m.functions) {
        out << "U " << EscapeField(fn.qualified) << " "
            << EscapeField(fn.name) << " " << EscapeField(fn.class_name)
            << " " << fn.line << " " << (fn.returns_status ? 1 : 0) << "\n";
        for (const CallSite& c : fn.calls) {
          out << "C " << EscapeField(c.callee) << " " << c.line << " "
              << EncodeHeld(c.held) << "\n";
        }
        for (const LockAcquire& a : fn.acquires) {
          out << "Q " << EscapeField(a.mutex) << " " << a.line << " "
              << (a.scoped ? 1 : 0) << " " << EncodeHeld(a.held) << "\n";
        }
        for (const BlockingOp& b : fn.blocking) {
          out << "B " << EscapeField(b.what) << " " << b.line << " "
              << EncodeHeld(b.held) << "\n";
        }
        for (const AllocOp& a : fn.allocs) {
          out << "O " << EscapeField(a.what) << " " << a.line << "\n";
        }
        for (const StatusLocal& s : fn.status_locals) {
          out << "S " << EscapeField(s.var) << " " << s.line << " "
              << (s.read ? 1 : 0) << " " << (s.typed ? 1 : 0) << " "
              << EscapeField(s.init_callee) << "\n";
        }
      }
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
}

std::map<std::string, FileModel> LoadCacheFile(const std::string& path) {
  std::map<std::string, FileModel> cache;
  std::ifstream in(path, std::ios::binary);
  if (!in) return cache;
  std::string line;
  if (!std::getline(in, line) || line != kCacheHeader) return cache;
  FileModel* file = nullptr;
  FunctionModel* fn = nullptr;
  while (std::getline(in, line)) {
    std::istringstream ss(line);
    std::string tag;
    if (!(ss >> tag)) continue;
    if (tag == "F") {
      std::string p;
      uint64_t hash = 0;
      if (!(ss >> p >> hash)) return {};
      FileModel m;
      m.path = UnescapeField(p);
      m.hash = hash;
      file = &cache.emplace(m.path, std::move(m)).first->second;
      fn = nullptr;
    } else if (file == nullptr) {
      return {};
    } else if (tag == "A") {
      std::string a;
      if (!(ss >> a)) return {};
      file->file_allows.insert(UnescapeField(a));
    } else if (tag == "W") {
      int ln = 0;
      std::string rules;
      if (!(ss >> ln >> rules)) return {};
      const std::vector<std::string> list = DecodeHeld(rules);
      file->line_allows[ln] = {list.begin(), list.end()};
    } else if (tag == "L") {
      std::string rule, key, msg;
      int ln = 0;
      if (!(ss >> rule >> ln >> key >> msg)) return {};
      file->lint_findings.push_back(
          lint::Finding{UnescapeField(rule), file->path, ln,
                        UnescapeField(msg), UnescapeField(key)});
    } else if (tag == "U") {
      std::string q, name, cls;
      int ln = 0, ret = 0;
      if (!(ss >> q >> name >> cls >> ln >> ret)) return {};
      FunctionModel f;
      f.qualified = UnescapeField(q);
      f.name = UnescapeField(name);
      f.class_name = UnescapeField(cls);
      f.line = ln;
      f.returns_status = ret != 0;
      file->functions.push_back(std::move(f));
      fn = &file->functions.back();
    } else if (fn == nullptr) {
      return {};
    } else if (tag == "C") {
      std::string callee, held;
      int ln = 0;
      if (!(ss >> callee >> ln >> held)) return {};
      fn->calls.push_back(
          CallSite{UnescapeField(callee), ln, DecodeHeld(held)});
    } else if (tag == "Q") {
      std::string mu, held;
      int ln = 0, scoped = 0;
      if (!(ss >> mu >> ln >> scoped >> held)) return {};
      fn->acquires.push_back(LockAcquire{UnescapeField(mu), ln, scoped != 0,
                                         DecodeHeld(held)});
    } else if (tag == "B") {
      std::string what, held;
      int ln = 0;
      if (!(ss >> what >> ln >> held)) return {};
      fn->blocking.push_back(
          BlockingOp{UnescapeField(what), ln, DecodeHeld(held)});
    } else if (tag == "O") {
      std::string what;
      int ln = 0;
      if (!(ss >> what >> ln)) return {};
      fn->allocs.push_back(AllocOp{UnescapeField(what), ln});
    } else if (tag == "S") {
      std::string var, callee;
      int ln = 0, read = 0, typed = 0;
      if (!(ss >> var >> ln >> read >> typed >> callee)) return {};
      fn->status_locals.push_back(StatusLocal{UnescapeField(var), ln,
                                              read != 0, typed != 0,
                                              UnescapeField(callee)});
    } else {
      return {};
    }
  }
  return cache;
}

// ---- report assembly -----------------------------------------------------

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool AllowedByModel(const FileModel& m, const lint::Finding& f) {
  if (m.file_allows.count(f.rule) > 0) return true;
  for (int ln : {f.line, f.line - 1}) {
    const auto it = m.line_allows.find(ln);
    if (it != m.line_allows.end() && it->second.count(f.rule) > 0) {
      return true;
    }
  }
  return false;
}

/// Runs the three pass-2 analyses over the models, applies the allow /
/// allow-file escape hatches and the baseline, merges the cached pass-1
/// findings, and sorts everything deterministically.
void FinishReport(const std::vector<FileModel>& models,
                  const AnalyzerOptions& options, AnalysisReport* report) {
  using clock = std::chrono::steady_clock;
  auto t0 = clock::now();
  const Program prog = BuildProgram(models);
  report->timings.push_back(AnalysisTiming{"index", MsSince(t0)});

  std::vector<lint::Finding> pass2;
  t0 = clock::now();
  LockOrderAnalysis(prog, &pass2);
  report->timings.push_back(AnalysisTiming{"lock-order", MsSince(t0)});
  t0 = clock::now();
  HotPathAnalysis(prog, options.entries.empty() ? DefaultEntries()
                                                : options.entries,
                  &pass2);
  report->timings.push_back(AnalysisTiming{"hot-path", MsSince(t0)});
  t0 = clock::now();
  StatusDropAnalysis(prog, &pass2);
  report->timings.push_back(AnalysisTiming{"status-drop", MsSince(t0)});

  std::map<std::string, const FileModel*> by_path;
  for (const FileModel& m : models) by_path[m.path] = &m;
  const auto baseline = options.baseline_path.empty()
                            ? std::set<std::pair<std::string, std::string>>{}
                            : LoadBaseline(options.baseline_path);
  for (lint::Finding& f : pass2) {
    const auto it = by_path.find(f.file);
    if (it != by_path.end() && AllowedByModel(*it->second, f)) continue;
    if (baseline.count({f.rule, f.key}) > 0) {
      report->baselined.push_back(std::move(f));
    } else {
      report->findings.push_back(std::move(f));
    }
  }
  for (const FileModel& m : models) {
    report->findings.insert(report->findings.end(), m.lint_findings.begin(),
                            m.lint_findings.end());
  }
  auto order = [](const lint::Finding& a, const lint::Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.key, a.message) <
           std::tie(b.file, b.line, b.rule, b.key, b.message);
  };
  std::sort(report->findings.begin(), report->findings.end(), order);
  std::sort(report->baselined.begin(), report->baselined.end(), order);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

void AppendFindingJson(const lint::Finding& f, bool baselined,
                       std::string* out) {
  *out += "    {\"rule\": \"" + JsonEscape(f.rule) + "\", \"file\": \"" +
          JsonEscape(f.file) + "\", \"line\": " + std::to_string(f.line) +
          ", \"key\": \"" + JsonEscape(f.key) + "\", \"baselined\": " +
          (baselined ? "true" : "false") + ", \"message\": \"" +
          JsonEscape(f.message) + "\"}";
}

}  // namespace

// ---- public API ----------------------------------------------------------

uint64_t HashContent(const std::string& content) {
  uint64_t h = 1469598103934665603ull ^
               (kModelFormatVersion * 1099511628211ull);
  for (char c : content) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

FileModel BuildFileModel(const std::string& relpath,
                         const std::string& content) {
  FileModel model;
  model.path = relpath;
  model.hash = HashContent(content);
  const lint::ScannedFile scan = lint::ScanSource(content);
  model.file_allows = lint::ParseFileAllows(scan);
  const std::vector<std::set<std::string>> line_allows =
      lint::ParseLineAllows(scan.comments);
  for (size_t i = 0; i < line_allows.size(); ++i) {
    if (!line_allows[i].empty()) {
      model.line_allows[static_cast<int>(i) + 1] = line_allows[i];
    }
  }
  FileParser parser(Tokenize(scan.code));
  parser.Parse(&model);
  return model;
}

const std::vector<std::string>& AnalysisIds() {
  static const std::vector<std::string> kIds = {
      "lock-order-cycle",
      "hot-path-blocking",
      "hot-path-alloc",
      "status-drop",
  };
  return kIds;
}

AnalysisReport AnalyzeSources(const std::vector<SourceFile>& files,
                              const AnalyzerOptions& options) {
  using clock = std::chrono::steady_clock;
  const auto t_total = clock::now();
  auto t0 = clock::now();
  AnalysisReport report;
  std::vector<FileModel> models;
  models.reserve(files.size());
  for (const SourceFile& f : files) {
    models.push_back(BuildFileModel(f.path, f.content));
    if (options.run_lint) {
      models.back().lint_findings = lint::LintSource(f.path, f.content);
    }
  }
  report.files_scanned = static_cast<int>(files.size());
  report.files_parsed = static_cast<int>(files.size());
  report.timings.push_back(AnalysisTiming{"parse", MsSince(t0)});
  FinishReport(models, options, &report);
  report.timings.push_back(AnalysisTiming{"total", MsSince(t_total)});
  return report;
}

AnalysisReport AnalyzeTree(const std::string& root,
                           const AnalyzerOptions& options) {
  namespace fs = std::filesystem;
  using clock = std::chrono::steady_clock;
  const auto t_total = clock::now();
  auto t0 = clock::now();
  AnalysisReport report;

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
  const fs::path repo_root = lint::RepoRootFor(root);
  std::vector<std::string> relpaths(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    std::error_code ec;
    const fs::path canonical = fs::weakly_canonical(files[i], ec);
    relpaths[i] =
        fs::relative(ec ? files[i] : canonical, repo_root).generic_string();
  }
  report.files_scanned = static_cast<int>(files.size());

  const std::string cache_path =
      options.cache_dir.empty()
          ? ""
          : (fs::path(options.cache_dir) / "model_cache.txt").string();
  const std::map<std::string, FileModel> cache =
      cache_path.empty() ? std::map<std::string, FileModel>{}
                         : LoadCacheFile(cache_path);

  const size_t n = files.size();
  std::vector<FileModel> models(n);
  std::vector<char> hit(n, 0);
  std::vector<char> read_error(n, 0);
  auto parse_range = [&](int64_t b, int64_t e) {
    for (int64_t idx = b; idx < e; ++idx) {
      const size_t i = static_cast<size_t>(idx);
      std::ifstream in(files[i], std::ios::binary);
      if (!in) {
        read_error[i] = 1;
        models[i].path = relpaths[i];
        continue;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string content = buffer.str();
      const uint64_t hash = HashContent(content);
      const auto it = cache.find(relpaths[i]);
      if (it != cache.end() && it->second.hash == hash) {
        models[i] = it->second;
        hit[i] = 1;
        continue;
      }
      models[i] = BuildFileModel(relpaths[i], content);
      if (options.run_lint) {
        models[i].lint_findings = lint::LintSource(relpaths[i], content);
      }
    }
  };
  int threads = options.threads > 0
                    ? options.threads
                    : static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  if (threads > 1 && n > 1) {
    util::ThreadPool pool(threads);
    pool.ParallelFor(0, static_cast<int64_t>(n), 8, parse_range);
  } else {
    parse_range(0, static_cast<int64_t>(n));
  }
  for (size_t i = 0; i < n; ++i) {
    if (read_error[i]) {
      report.findings.push_back(
          lint::Finding{"read-error", relpaths[i], 0, "cannot open", ""});
    } else if (hit[i]) {
      ++report.files_cached;
    } else {
      ++report.files_parsed;
    }
  }
  if (!cache_path.empty()) SaveCacheFile(cache_path, models);
  report.timings.push_back(AnalysisTiming{"parse", MsSince(t0)});

  FinishReport(models, options, &report);
  report.timings.push_back(AnalysisTiming{"total", MsSince(t_total)});
  return report;
}

std::string ReportToJson(const AnalysisReport& report,
                         const std::string& root) {
  std::string out = "{\n";
  out += "  \"root\": \"" + JsonEscape(root) + "\",\n";
  out += "  \"files_scanned\": " + std::to_string(report.files_scanned) +
         ",\n";
  out += "  \"files_parsed\": " + std::to_string(report.files_parsed) + ",\n";
  out += "  \"files_cached\": " + std::to_string(report.files_cached) + ",\n";
  out += "  \"findings\": [\n";
  bool first = true;
  for (const lint::Finding& f : report.findings) {
    if (!first) out += ",\n";
    first = false;
    AppendFindingJson(f, false, &out);
  }
  for (const lint::Finding& f : report.baselined) {
    if (!first) out += ",\n";
    first = false;
    AppendFindingJson(f, true, &out);
  }
  out += "\n  ],\n";
  out += "  \"timings\": [\n";
  for (size_t i = 0; i < report.timings.size(); ++i) {
    if (i) out += ",\n";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", report.timings[i].ms);
    out += "    {\"name\": \"" + JsonEscape(report.timings[i].name) +
           "\", \"ms\": " + buf + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::set<std::pair<std::string, std::string>> LoadBaseline(
    const std::string& path) {
  std::set<std::pair<std::string, std::string>> baseline;
  std::ifstream in(path);
  if (!in) return baseline;
  std::string line;
  while (std::getline(in, line)) {
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const size_t last = line.find_last_not_of(" \t\r");
    const std::string trimmed = line.substr(first, last - first + 1);
    const size_t space = trimmed.find(' ');
    if (space == std::string::npos) continue;
    baseline.emplace(trimmed.substr(0, space), trimmed.substr(space + 1));
  }
  return baseline;
}

}  // namespace imr::analysis
