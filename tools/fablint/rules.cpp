// fablint rule implementations.
//
// Each rule re-scans function-body token ranges recorded by the parser.
// Resolution is name-based and over-approximate (see model.hpp): a
// finding means "fablint cannot prove this clean", and the waiver forms
// (FABLINT_ALLOW / fablint:allow comments / MAY_ALLOC) record the human
// judgement with a mandatory reason.
#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <map>
#include <set>
#include <sstream>

#include "layout.hpp"

namespace fablint {

namespace {

bool path_has_dir(const std::string& path, const std::string& dir) {
  std::string p = "/" + path + "/";
  std::replace(p.begin(), p.end(), '\\', '/');
  return p.find("/" + dir + "/") != std::string::npos;
}

bool path_contains(const std::string& path, const std::string& piece) {
  return path.find(piece) != std::string::npos;
}

const std::set<std::string>& keywords() {
  static const std::set<std::string> kw = {
      "if",       "for",      "while",  "switch",   "return", "sizeof",
      "alignof",  "catch",    "do",     "else",     "case",   "default",
      "break",    "continue", "goto",   "static_cast", "const_cast",
      "dynamic_cast", "reinterpret_cast", "new", "delete", "co_await",
      "co_return", "co_yield", "throw", "assert", "static_assert",
      "decltype", "noexcept", "typeid", "alignas",
  };
  return kw;
}

struct Ctx {
  const Corpus& corpus;
  const Options& opts;
  std::vector<Finding>* out;

  bool rule_on(const std::string& id) const {
    return opts.rules.empty() || opts.rules.count(id) != 0;
  }

  /// True (and marks the allow used) when a suppression for `rule`
  /// attaches to `line` or, if given, to the enclosing declaration.
  bool suppressed(const FileModel& fm, const std::string& rule, int line,
                  const FunctionDef* fn = nullptr) const {
    for (const Allow& a : fm.allows) {
      if (a.rule != rule) continue;
      const bool site = a.line == line || a.line == line - 1;
      const bool decl =
          fn != nullptr && (a.line == fn->line || a.line == fn->line - 1);
      if (site || decl) {
        a.used = true;
        return true;
      }
    }
    // Declaration-attached suppression on the in-class prototype of an
    // out-of-line definition (the header is the natural anchor).
    if (fn != nullptr) {
      for (const FileModel& other : corpus.files) {
        for (const FunctionDef& proto : other.functions) {
          if (proto.is_definition || proto.qualified != fn->qualified) {
            continue;
          }
          for (const Allow& a : other.allows) {
            if (a.rule != rule) continue;
            if (a.line == proto.line || a.line == proto.line - 1) {
              a.used = true;
              return true;
            }
          }
        }
      }
    }
    return false;
  }

  void report(const FileModel& fm, const std::string& rule, int line,
              std::string message, const FunctionDef* fn = nullptr) const {
    if (!rule_on(rule)) return;
    if (suppressed(fm, rule, line, fn)) return;
    out->push_back({rule, fm.path, line, std::move(message)});
  }
};

const Token& tok_at(const FileModel& fm, std::size_t i) {
  static const Token eof{Tok::kEof, "", 0};
  return i < fm.tokens.size() ? fm.tokens[i] : eof;
}

/// Skip a balanced group in [i, end); returns index one past the match.
std::size_t skip_group(const FileModel& fm, std::size_t i, std::size_t end,
                       const char* open, const char* close) {
  int depth = 0;
  while (i < end) {
    const std::string& t = tok_at(fm, i).text;
    if (t == open) ++depth;
    if (t == close && --depth == 0) return i + 1;
    ++i;
  }
  return end;
}

/// `name(...)` at token i followed by a function-body opener is a
/// DECLARATION of that name, not a call to the library one.
bool declares_at(const FileModel& fm, std::size_t i) {
  const std::size_t close = skip_group(fm, i + 1, fm.tokens.size(), "(", ")");
  const std::string& after = tok_at(fm, close).text;
  return after == "{" || after == "const" || after == "noexcept" ||
         after == "override";
}

const FunctionDef* enclosing_function(const FileModel& fm, std::size_t tok) {
  for (const FunctionDef& fn : fm.functions) {
    if (fn.is_definition && tok >= fn.body_begin && tok < fn.body_end) {
      return &fn;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Scope resolution: params + best-effort locals + class members.

struct Scope {
  std::map<std::string, VarDecl> vars;     // params + locals + members
  std::vector<VarDecl> locals;             // locals only (node-map rule)
};

bool type_token(const Token& t) {
  if (t.kind == Tok::kIdent) return keywords().count(t.text) == 0;
  return t.text == "::" || t.text == "*" || t.text == "&" || t.text == "<" ||
         t.text == ">" || t.text == "," || t.text == "&&";
}

/// Try to parse a local declaration starting at statement-start `i`.
/// Returns the declared variable and the index to resume from.
std::optional<std::pair<VarDecl, std::size_t>> try_parse_local(
    const FileModel& fm, std::size_t i, std::size_t end) {
  const std::size_t start = i;
  if (tok_at(fm, i).kind != Tok::kIdent) return std::nullopt;
  if (keywords().count(tok_at(fm, i).text) != 0) return std::nullopt;
  // Collect type tokens (balanced template args), then expect
  // `name` followed by `=`, `;`, `{`, or `(`.
  std::size_t j = i;
  std::size_t last_ident = std::string::npos;
  while (j < end) {
    const Token& t = tok_at(fm, j);
    if (t.text == "<") {
      j = skip_group(fm, j, end, "<", ">");
      continue;
    }
    if (type_token(t)) {
      if (t.kind == Tok::kIdent) last_ident = j;
      ++j;
      continue;
    }
    break;
  }
  if (last_ident == std::string::npos || last_ident == start) {
    return std::nullopt;  // single identifier = expression, not a decl
  }
  const std::string& next = tok_at(fm, j).text;
  if (next != "=" && next != ";" && next != "{" && next != "(") {
    return std::nullopt;
  }
  // `name(args)` at statement scope is ambiguous with a call; only
  // treat it as a declaration when the name is preceded by 2+ type
  // tokens AND the previous token is an identifier or `>`/`*`/`&`.
  const Token& prev = tok_at(fm, last_ident - 1);
  if (!(prev.kind == Tok::kIdent || prev.text == ">" || prev.text == "*" ||
        prev.text == "&" || prev.text == "::")) {
    return std::nullopt;
  }
  if (prev.text == "::") return std::nullopt;  // qualified call/static use
  VarDecl v;
  v.name = tok_at(fm, last_ident).text;
  v.line = tok_at(fm, last_ident).line;
  {
    std::string type;
    for (std::size_t k = start; k < last_ident; ++k) {
      const std::string& t = tok_at(fm, k).text;
      if (t.empty()) continue;
      const bool word = std::isalnum(static_cast<unsigned char>(t[0])) ||
                        t[0] == '_';
      if (!type.empty() && word) {
        const char last = type.back();
        if (std::isalnum(static_cast<unsigned char>(last)) || last == '_') {
          type += ' ';
        }
      }
      type += t;
    }
    v.type_text = type;
  }
  v.container = [&] {
    auto has = [&](const char* n) {
      return v.type_text.find(n) != std::string::npos;
    };
    if (has("std::unordered_map<")) return ContainerKind::kUnorderedMap;
    if (has("std::unordered_set<")) return ContainerKind::kUnorderedSet;
    if (has("std::map<")) return ContainerKind::kNodeMap;
    if (has("std::set<")) return ContainerKind::kNodeSet;
    if (has("std::list<")) return ContainerKind::kNodeList;
    if (has("FlatHashMap<")) return ContainerKind::kFlatMap;
    if (has("FlatHashSet<")) return ContainerKind::kFlatSet;
    return ContainerKind::kNone;
  }();
  return std::make_pair(v, j);
}

Scope collect_scope(const Corpus& corpus, const FileModel& fm,
                    const FunctionDef& fn) {
  Scope s;
  for (const VarDecl& p : fn.params) s.vars[p.name] = p;
  if (!fn.class_name.empty()) {
    auto it = corpus.structs_by_name.find(fn.class_name);
    if (it != corpus.structs_by_name.end()) {
      for (const VarDecl& m : it->second->members) s.vars[m.name] = m;
    }
  }
  // Best-effort locals: statement starts only.
  bool at_stmt_start = true;
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Token& t = tok_at(fm, i);
    if (at_stmt_start && t.kind == Tok::kIdent) {
      if (auto parsed = try_parse_local(fm, i, fn.body_end)) {
        s.vars[parsed->first.name] = parsed->first;
        s.locals.push_back(parsed->first);
        i = parsed->second - 1;  // resume at the initializer/terminator
        at_stmt_start = false;
        continue;
      }
    }
    at_stmt_start = t.text == ";" || t.text == "{" || t.text == "}";
  }
  return s;
}

// ---------------------------------------------------------------------
// Rule: entropy

void rule_entropy(const Ctx& ctx) {
  for (const FileModel& fm : ctx.corpus.files) {
    if (path_contains(fm.path, "common/rng")) continue;
    for (std::size_t i = 0; i < fm.tokens.size(); ++i) {
      const Token& t = tok_at(fm, i);
      if (t.kind != Tok::kIdent) continue;
      const std::string& prev = i > 0 ? tok_at(fm, i - 1).text : "";
      const bool member_access = prev == "." || prev == "->";
      const bool std_qual =
          prev == "::" && i >= 2 && tok_at(fm, i - 2).text == "std";
      const bool other_qual = prev == "::" && !std_qual;
      const FunctionDef* fn = enclosing_function(fm, i);
      auto flag = [&](const std::string& msg) {
        ctx.report(fm, "entropy", t.line, msg, fn);
      };
      if ((t.text == "rand" || t.text == "srand") && !member_access &&
          !other_qual && tok_at(fm, i + 1).text == "(" &&
          !declares_at(fm, i)) {
        flag("raw " + t.text + "(): use common/rng");
      } else if (t.text == "random_device" && std_qual) {
        flag("std::random_device: use common/rng");
      } else if ((t.text == "mt19937" || t.text == "mt19937_64") &&
                 std_qual) {
        flag("std::" + t.text + ": use common/rng");
      } else if (t.text == "time" && !member_access && !other_qual &&
                 tok_at(fm, i + 1).text == "(") {
        const std::string& arg = tok_at(fm, i + 2).text;
        if (arg == "NULL" || arg == "nullptr" || arg == "0" || arg == "&") {
          flag("wall-clock time(): use EventLoop sim time");
        }
      } else if (t.text == "clock" && !member_access && !other_qual &&
                 !std_qual && tok_at(fm, i + 1).text == "(" &&
                 tok_at(fm, i + 2).text == ")" && !declares_at(fm, i)) {
        flag("clock(): use EventLoop sim time");
      } else if ((t.text == "system_clock" || t.text == "steady_clock" ||
                  t.text == "high_resolution_clock") &&
                 prev == "::" && i >= 2 &&
                 tok_at(fm, i - 2).text == "chrono") {
        flag("std::chrono::" + t.text + ": use EventLoop sim time");
      } else if (t.text == "getentropy" || t.text == "getrandom") {
        flag("OS entropy: use common/rng");
      }
    }
  }
}

// ---------------------------------------------------------------------
// Rule: load-numeric
//
// src/load's arrival times and popularity draws feed the determinism
// digest directly, so it is held to a stricter rule than `entropy`:
// <random> distributions are implementation-defined (the same seed
// draws differently on libstdc++ and libc++), and libm transcendentals
// may differ at the last ulp between platforms.

void rule_load_numeric(const Ctx& ctx) {
  static const std::set<std::string> transcendental = {
      "sin",  "sinf",  "cos",  "cosf",  "tan",   "tanf",   "exp", "expf",
      "exp2", "exp2f", "log",  "logf",  "log2",  "log2f", "log10", "log10f",
  };
  const std::string suffix = "_distribution";
  for (const FileModel& fm : ctx.corpus.files) {
    if (!path_has_dir(fm.path, "load")) continue;
    for (const auto& [line, header] : fm.system_includes) {
      if (header == "random") {
        ctx.report(fm, "load-numeric", line,
                   "src/load: <random> distributions are "
                   "implementation-defined; use common/rng");
      }
    }
    for (std::size_t i = 0; i < fm.tokens.size(); ++i) {
      const Token& t = tok_at(fm, i);
      if (t.kind != Tok::kIdent) continue;
      const FunctionDef* fn = enclosing_function(fm, i);
      auto flag = [&](const std::string& msg) {
        ctx.report(fm, "load-numeric", t.line, "src/load: " + msg, fn);
      };
      const std::string& prev = i > 0 ? tok_at(fm, i - 1).text : "";
      const bool std_qual =
          prev == "::" && i >= 2 && tok_at(fm, i - 2).text == "std";
      if (std_qual && t.text.size() > suffix.size() &&
          t.text.compare(t.text.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
        flag("std::" + t.text + " is a <random> distribution: use "
             "common/rng");
      } else if (transcendental.count(t.text) != 0 &&
                 tok_at(fm, i + 1).text == "(" && prev != "." &&
                 prev != "->" && (prev != "::" || std_qual) &&
                 !declares_at(fm, i)) {
        flag("libm " + t.text + "() varies across platforms at the last "
             "ulp; use piecewise arithmetic shapes");
      }
    }
  }
}

// ---------------------------------------------------------------------
// Rule: hash-fanout

const std::set<std::string>& send_family() {
  static const std::set<std::string> s = {
      "send",          "transmit", "forward", "flood",
      "emit",          "emit_",    "post",    "schedule_at",
      "schedule_after", "fold",    "fold_frame",
  };
  return s;
}

bool range_has_send(const FileModel& fm, std::size_t begin, std::size_t end,
                    std::string* which) {
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = tok_at(fm, i);
    if (t.kind == Tok::kIdent && send_family().count(t.text) != 0 &&
        tok_at(fm, i + 1).text == "(") {
      *which = t.text;
      return true;
    }
  }
  return false;
}

void rule_hash_fanout(const Ctx& ctx) {
  for (const FileModel& fm : ctx.corpus.files) {
    for (const FunctionDef& fn : fm.functions) {
      if (!fn.is_definition) continue;
      const Scope scope = collect_scope(ctx.corpus, fm, fn);
      auto resolve = [&](const std::string& name) -> const VarDecl* {
        auto it = scope.vars.find(name);
        return it == scope.vars.end() ? nullptr : &it->second;
      };
      for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
        const Token& t = tok_at(fm, i);
        // --- range-for over a hash-ordered container ---
        if (t.kind == Tok::kIdent && t.text == "for" &&
            tok_at(fm, i + 1).text == "(") {
          const std::size_t close =
              skip_group(fm, i + 1, fn.body_end, "(", ")");
          // Find the range-for `:` at paren depth 1 (not `::`).
          std::size_t colon = 0;
          int depth = 0;
          for (std::size_t j = i + 1; j < close; ++j) {
            const std::string& x = tok_at(fm, j).text;
            if (x == "(") ++depth;
            else if (x == ")") --depth;
            else if (x == ":" && depth == 1) { colon = j; break; }
          }
          if (colon == 0) continue;
          // Domain: first identifier after the colon.
          const VarDecl* domain = nullptr;
          for (std::size_t j = colon + 1; j < close - 1; ++j) {
            if (tok_at(fm, j).kind == Tok::kIdent) {
              domain = resolve(tok_at(fm, j).text);
              break;
            }
          }
          if (domain == nullptr || !hash_ordered(domain->container)) {
            continue;
          }
          // Loop body: braced block or single statement.
          std::size_t body_end;
          if (tok_at(fm, close).text == "{") {
            body_end = skip_group(fm, close, fn.body_end, "{", "}");
          } else {
            body_end = close;
            while (body_end < fn.body_end &&
                   tok_at(fm, body_end).text != ";") {
              ++body_end;
            }
          }
          std::string which;
          if (range_has_send(fm, close, body_end, &which)) {
            ctx.report(fm, "hash-fanout", t.line,
                       "iteration over hash-ordered container '" +
                           domain->name + "' reaches '" + which +
                           "': fan-out order depends on hash layout; "
                           "iterate a sorted view",
                       &fn);
          }
          continue;
        }
        // --- for_each over a flat table ---
        if (t.kind == Tok::kIdent && t.text == "for_each" &&
            (tok_at(fm, i - 1).text == "." ||
             tok_at(fm, i - 1).text == "->") &&
            tok_at(fm, i + 1).text == "(") {
          const VarDecl* recv = i >= 2 ? resolve(tok_at(fm, i - 2).text)
                                       : nullptr;
          if (recv == nullptr || !hash_ordered(recv->container)) continue;
          const std::size_t close =
              skip_group(fm, i + 1, fn.body_end, "(", ")");
          std::string which;
          if (range_has_send(fm, i + 1, close, &which)) {
            ctx.report(fm, "hash-fanout", t.line,
                       "for_each over hash-ordered container '" +
                           recv->name + "' reaches '" + which +
                           "': fan-out order depends on hash layout; "
                           "iterate a sorted view",
                       &fn);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Rule: raw-counter

void rule_raw_counter(const Ctx& ctx) {
  for (const FileModel& fm : ctx.corpus.files) {
    if (path_has_dir(fm.path, "obs")) continue;
    if (fm.has_source_group) continue;
    for (const StructDef& sd : fm.structs) {
      if (sd.name != "Counters") continue;
      ctx.report(fm, "raw-counter", sd.line,
                 "raw Counters struct without obs registry registration: "
                 "attach an obs::SourceGroup or annotate "
                 "'fablint:allow(raw-counter) <reason>'");
    }
  }
}

// ---------------------------------------------------------------------
// Rule: node-map

void rule_node_map(const Ctx& ctx) {
  for (const FileModel& fm : ctx.corpus.files) {
    if (!path_has_dir(fm.path, "sim")) continue;
    auto flag = [&](const VarDecl& v) {
      if (!node_based(v.container)) return;
      ctx.report(fm, "node-map", v.line,
                 "node-based container '" + v.name +
                     "' on the simulator path: one cache miss per hop; "
                     "use common/flat_table.hpp or annotate "
                     "'fablint:allow(node-map) <reason>'");
    };
    for (const StructDef& sd : fm.structs) {
      for (const VarDecl& m : sd.members) flag(m);
    }
    for (const FunctionDef& fn : fm.functions) {
      if (!fn.is_definition) continue;
      const Scope scope = collect_scope(ctx.corpus, fm, fn);
      for (const VarDecl& v : scope.locals) flag(v);
    }
  }
}

// ---------------------------------------------------------------------
// Rule: hotpath-alloc

struct CallSite {
  std::string name;
  bool std_qualified = false;
  int line = 0;
  /// `Class::name(...)`: the qualifier (empty otherwise).
  std::string qualifier;
  /// `recv.name(...)` / `recv->name(...)`.
  bool has_receiver = false;
  /// Receiver's declared type text when the scope resolves it ("" when
  /// the receiver is an expression or an unknown identifier).
  std::string recv_type;
};

std::vector<CallSite> scan_calls(const FileModel& fm, const FunctionDef& fn,
                                 const Scope& scope) {
  std::vector<CallSite> out;
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Token& t = tok_at(fm, i);
    if (t.kind != Tok::kIdent || tok_at(fm, i + 1).text != "(") continue;
    if (keywords().count(t.text) != 0) continue;
    CallSite c;
    c.name = t.text;
    c.line = t.line;
    const std::string& prev = i > 0 ? tok_at(fm, i - 1).text : "";
    if (prev == "::") {
      c.std_qualified = i >= 2 && tok_at(fm, i - 2).text == "std";
      if (i >= 2 && tok_at(fm, i - 2).kind == Tok::kIdent) {
        c.qualifier = tok_at(fm, i - 2).text;
      }
    } else if (prev == "." || prev == "->") {
      c.has_receiver = true;
      if (i >= 2) {
        const Token& recv = tok_at(fm, i - 2);
        if (recv.text == "this") {
          c.has_receiver = false;  // this->f() is a same-class call
        } else if (recv.kind == Tok::kIdent) {
          auto it = scope.vars.find(recv.text);
          if (it != scope.vars.end()) c.recv_type = it->second.type_text;
        }
      }
    }
    out.push_back(std::move(c));
  }
  return out;
}

/// Can `c`, written inside `caller`, plausibly land on `target`?  The
/// call graph is name-based, so ubiquitous method names (send, start,
/// complete...) collide across unrelated classes and stitch together
/// chains that do not exist.  Where the call site carries class
/// evidence — a qualifier, a receiver with a resolvable declared type,
/// or no receiver at all (self/free call) — use it to reject
/// cross-class edges.  Receivers we cannot type (call-chain results,
/// unresolved identifiers) stay over-approximate.
bool call_may_target(const CallSite& c, const FunctionDef& caller,
                     const FunctionDef& target) {
  if (!c.qualifier.empty()) {
    return target.class_name == c.qualifier;
  }
  if (c.has_receiver) {
    if (c.recv_type.empty()) return true;  // untyped receiver: keep edge
    return !target.class_name.empty() &&
           c.recv_type.find(target.class_name) != std::string::npos;
  }
  // Plain `name(...)`: a free function, or a method of the caller's own
  // class (including methods inherited via members of the same name).
  return target.class_name.empty() ||
         target.class_name == caller.class_name;
}

void rule_hotpath_alloc(const Ctx& ctx) {
  // Seed: HOT_PATH definitions.  Traverse the name-based call graph;
  // MAY_ALLOC cuts the subtree (a reviewed allocation region).
  struct Reached {
    const FunctionDef* via = nullptr;  // caller
    const FileModel* file = nullptr;
  };
  std::map<const FunctionDef*, Reached> reached;
  std::deque<const FunctionDef*> queue;
  std::map<const FunctionDef*, const FileModel*> file_of;
  for (const FileModel& fm : ctx.corpus.files) {
    for (const FunctionDef& fn : fm.functions) {
      if (fn.is_definition) file_of[&fn] = &fm;
      if (fn.is_definition && fn.hot_path) {
        reached[&fn] = {nullptr, &fm};
        queue.push_back(&fn);
      }
    }
  }
  auto chain_of = [&](const FunctionDef* fn) {
    std::vector<std::string> parts;
    for (const FunctionDef* f = fn; f != nullptr && parts.size() < 6;
         f = reached[f].via) {
      parts.push_back(f->qualified);
    }
    std::reverse(parts.begin(), parts.end());  // root first
    std::string fwd;
    for (const auto& p : parts) {
      if (!fwd.empty()) fwd += " -> ";
      fwd += p;
    }
    return fwd;
  };

  const std::set<std::string> alloc_calls = {"malloc", "calloc", "realloc",
                                             "aligned_alloc", "strdup",
                                             "free"};
  const std::set<std::string> make_calls = {"make_unique", "make_shared"};
  const std::set<std::string> mut_methods = {
      "insert",       "emplace",       "emplace_back", "emplace_front",
      "emplace_hint", "push_back",     "push_front",   "erase",
      "clear",        "extract",       "merge",        "rehash",
      "try_emplace",  "insert_or_assign",
  };
  // Names the BFS never traverses INTO.  The call graph is name-based,
  // so ubiquitous accessor names (size, decode, ...) collide across
  // unrelated classes and stitch together chains that do not exist
  // (e.g. BufferPool::release -> ORSet::size).  These are trivial
  // reads/decoders in this codebase; anything heavier must not reuse
  // the name.  Direct alloc sites inside a HOT_PATH body are still
  // caught — this only prunes graph edges, not leaf checks.
  const std::set<std::string> traversal_stop = {
      "size",     "empty",  "capacity", "count", "begin", "end",
      "at",       "front",  "back",     "data",  "value", "has_value",
      "armed",    "now",    "id",       "name",  "get",   "contains",
      "find",     "stats",  "config",   "counters",
  };

  while (!queue.empty()) {
    const FunctionDef* fn = queue.front();
    queue.pop_front();
    if (fn->may_alloc) continue;  // waived subtree
    const FileModel& fm = *reached[fn].file;
    const Scope scope = collect_scope(ctx.corpus, fm, *fn);

    for (std::size_t i = fn->body_begin; i < fn->body_end; ++i) {
      const Token& t = tok_at(fm, i);
      if (t.kind != Tok::kIdent) continue;
      const std::string& next = tok_at(fm, i + 1).text;
      const std::string& prev = i > 0 ? tok_at(fm, i - 1).text : "";
      auto flag = [&](const std::string& what) {
        ctx.report(fm, "hotpath-alloc", t.line,
                   what + " reachable from HOT_PATH (" + chain_of(fn) +
                       "); pool it, hoist it, or annotate the reviewed "
                       "region MAY_ALLOC",
                   fn);
      };
      if (t.text == "new" && next != "(") {
        flag("operator new");
      } else if (t.text == "delete" && prev != "=") {
        flag("operator delete");
      } else if (alloc_calls.count(t.text) != 0 && next == "(" &&
                 prev != "." && prev != "->") {
        flag(t.text + "()");
      } else if (make_calls.count(t.text) != 0 && next == "(") {
        flag("std::" + t.text);
      } else if (t.text == "function" && prev == "::" && i >= 2 &&
                 tok_at(fm, i - 2).text == "std") {
        flag("std::function (type-erased closure; heap beyond 2 words)");
      } else if ((prev == "." || prev == "->") &&
                 mut_methods.count(t.text) != 0 && next == "(" && i >= 2) {
        const Token& recv = tok_at(fm, i - 2);
        if (recv.kind == Tok::kIdent) {
          auto it = scope.vars.find(recv.text);
          if (it != scope.vars.end() && node_based(it->second.container)) {
            flag("node-container mutation '" + recv.text + "." + t.text +
                 "'");
          }
        }
      }
    }

    for (const CallSite& c : scan_calls(fm, *fn, scope)) {
      if (c.std_qualified) continue;
      if (traversal_stop.count(c.name) != 0) continue;
      auto it = ctx.corpus.functions_by_name.find(c.name);
      if (it == ctx.corpus.functions_by_name.end()) continue;
      for (const FunctionDef* target : it->second) {
        if (reached.count(target) != 0) continue;
        if (!call_may_target(c, *fn, *target)) continue;
        reached[target] = {fn, file_of[target]};
        queue.push_back(target);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Rule: smallfn-spill

void rule_smallfn_spill(const Ctx& ctx) {
  const std::size_t limit = ctx.opts.smallfn_bytes != 0
                                ? ctx.opts.smallfn_bytes
                                : ctx.corpus.smallfn_inline_bytes;
  if (limit == 0) return;  // no SmallFn in the corpus
  const LayoutEngine layout(ctx.corpus);

  for (const FileModel& fm : ctx.corpus.files) {
    for (const FunctionDef& fn : fm.functions) {
      if (!fn.is_definition) continue;
      const Scope scope = collect_scope(ctx.corpus, fm, fn);

      for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
        if (tok_at(fm, i).text != "[") continue;
        // Lambda-introducer heuristic: `[` not preceded by a value.
        const Token& prev = tok_at(fm, i - 1);
        if (prev.kind == Tok::kIdent || prev.kind == Tok::kNumber ||
            prev.text == ")" || prev.text == "]") {
          continue;  // subscript
        }
        // Context: does the enclosing statement mention a SmallFn sink?
        bool sink = false;
        for (std::size_t j = i; j-- > fn.body_begin;) {
          const std::string& x = tok_at(fm, j).text;
          if (x == ";" || x == "{" || x == "}") break;
          if (x == "schedule_at" || x == "schedule_after" ||
              x == "SmallFn" || x == "Callback") {
            sink = true;
            break;
          }
        }
        if (!sink) continue;
        const std::size_t close = skip_group(fm, i, fn.body_end, "[", "]");
        // Must actually be a lambda.
        const std::string& after = tok_at(fm, close).text;
        if (after != "(" && after != "{" && after != "mutable") continue;

        // Walk the capture list, accumulating a layout lower bound.
        std::size_t size = 0, align = 1, unknowns = 0;
        auto add = [&](const Layout& l) {
          size = (size + l.align - 1) / l.align * l.align + l.size;
          align = std::max(align, l.align);
        };
        std::size_t j = i + 1;
        while (j < close - 0 && tok_at(fm, j).text != "]") {
          // One capture entry: up to top-level `,` or `]`.
          std::size_t entry_end = j;
          int depth = 0;
          while (entry_end < close) {
            const std::string& x = tok_at(fm, entry_end).text;
            if (x == "(" || x == "[" || x == "{" || x == "<") ++depth;
            if (x == ")" || x == "]" || x == "}" || x == ">") {
              if (x == "]" && depth == 0) break;
              --depth;
            }
            if (x == "," && depth == 0) break;
            ++entry_end;
          }
          const Token& first = tok_at(fm, j);
          if (first.text == "&" && entry_end == j + 1) {
            ++unknowns;  // default by-reference: entities unenumerated
          } else if (first.text == "=" && entry_end == j + 1) {
            ++unknowns;  // default by-value
          } else if (first.text == "&") {
            add(Layout{8, 8});  // by-reference
          } else if (first.text == "this") {
            add(Layout{8, 8});
          } else if (first.text == "*" &&
                     tok_at(fm, j + 1).text == "this") {
            if (!fn.class_name.empty()) {
              if (auto l = layout.of_type(fn.class_name)) add(*l);
              else { ++unknowns; add(Layout{8, 8}); }
            } else { ++unknowns; add(Layout{8, 8}); }
          } else if (first.kind == Tok::kIdent) {
            // `x` or `x = expr`.
            std::string resolved = first.text;
            if (tok_at(fm, j + 1).text == "=") {
              // init-capture: `x = std::move(y)` resolves y.
              std::size_t k = j + 2;
              if (tok_at(fm, k).text == "std" &&
                  tok_at(fm, k + 1).text == "::" &&
                  tok_at(fm, k + 2).text == "move" &&
                  tok_at(fm, k + 3).text == "(" &&
                  tok_at(fm, k + 4).kind == Tok::kIdent) {
                resolved = tok_at(fm, k + 4).text;
              } else if (tok_at(fm, k).text == "&") {
                resolved.clear();
                add(Layout{8, 8});
              } else if (tok_at(fm, k).kind == Tok::kNumber) {
                resolved.clear();
                add(Layout{8, 8});
              } else {
                resolved.clear();
                ++unknowns;
                add(Layout{8, 8});
              }
            }
            if (!resolved.empty()) {
              auto it = scope.vars.find(resolved);
              if (it != scope.vars.end()) {
                if (auto l = layout.of_type(it->second.type_text)) {
                  add(*l);
                } else {
                  ++unknowns;
                  add(Layout{8, 8});
                }
              } else {
                ++unknowns;
                add(Layout{8, 8});
              }
            }
          }
          j = entry_end;
          if (tok_at(fm, j).text == ",") ++j;
          else break;
        }
        const std::size_t total = (size + align - 1) / align * align;
        if (total > limit) {
          std::ostringstream msg;
          msg << "lambda capture footprint " << (unknowns ? "is at least " : "is ~")
              << total << " bytes; SmallFn inline buffer is " << limit
              << " bytes, so every schedule heap-allocates (silent "
                 "fallback): capture a pooled/indexed handle instead";
          ctx.report(fm, "smallfn-spill", tok_at(fm, i).line, msg.str(),
                     &fn);
        } else if (ctx.opts.strict && unknowns != 0) {
          ctx.report(fm, "smallfn-spill", tok_at(fm, i).line,
                     "capture footprint unresolved (" +
                         std::to_string(unknowns) +
                         " unknown capture(s)); --strict requires "
                         "resolvable captures in SmallFn contexts",
                     &fn);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Rule: cross-shard

const std::set<std::string>& const_methods() {
  static const std::set<std::string> s = {
      "size",    "empty",   "at",     "find",   "count",  "contains",
      "begin",   "end",     "cbegin", "cend",   "data",   "get",
      "value",   "has_value", "load", "stats",  "c_str",  "capacity",
      "front",   "back",    "name",   "armed",  "now",    "is_inline",
  };
  return s;
}

void rule_cross_shard(const Ctx& ctx) {
  for (const FileModel& fm : ctx.corpus.files) {
    for (const FunctionDef& fn : fm.functions) {
      if (!fn.is_definition || fn.class_name.empty()) continue;
      // Constructors and destructors touch members before/after the
      // object is shared; they are shard-local by definition.
      if (fn.name == fn.class_name || fn.name[0] == '~') continue;
      auto it = ctx.corpus.structs_by_name.find(fn.class_name);
      if (it == ctx.corpus.structs_by_name.end()) continue;
      std::set<std::string> cross;
      for (const VarDecl& m : it->second->members) {
        if (m.cross_shard) cross.insert(m.name);
      }
      if (cross.empty()) continue;

      for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
        const Token& t = tok_at(fm, i);
        if (t.kind != Tok::kIdent || cross.count(t.text) == 0) continue;
        const std::string& prev = i > 0 ? tok_at(fm, i - 1).text : "";
        if (prev == "." ||
            (prev == "->" && tok_at(fm, i - 2).text != "this") ||
            prev == "::") {
          continue;  // some other object's member
        }
        // Walk the access chain to see how the member is used.
        std::size_t j = i + 1;
        std::string last_method;
        bool is_write = prev == "++" || prev == "--";
        while (j < fn.body_end) {
          const std::string& x = tok_at(fm, j).text;
          if (x == "." || x == "->") {
            if (tok_at(fm, j + 1).kind == Tok::kIdent) {
              last_method = tok_at(fm, j + 1).text;
              j += 2;
              continue;
            }
            break;
          }
          if (x == "[") {
            j = skip_group(fm, j, fn.body_end, "[", "]");
            continue;
          }
          break;
        }
        const std::string& endtok = tok_at(fm, j).text;
        static const std::set<std::string> assign_ops = {
            "=",  "+=", "-=", "*=", "/=", "%=",
            "&=", "|=", "^=", "<<=", ">>=",
        };
        if (assign_ops.count(endtok) != 0 || endtok == "++" ||
            endtok == "--") {
          is_write = true;
        } else if (endtok == "(" && !last_method.empty() &&
                   const_methods().count(last_method) == 0) {
          is_write = true;  // mutating method call (not on allowlist)
        }
        if (is_write && !fn.cross_shard) {
          ctx.report(fm, "cross-shard", t.line,
                     "'" + fn.qualified + "' mutates CROSS_SHARD state '" +
                         t.text +
                         "' but is not annotated CROSS_SHARD: the sharded "
                         "loop needs every such site in --shard-report",
                     &fn);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------

void rule_allows(const Ctx& ctx) {
  if (!ctx.opts.rules.empty()) return;  // partial runs can't judge staleness
  for (const FileModel& fm : ctx.corpus.files) {
    for (int line : fm.malformed_allows) {
      ctx.out->push_back({"malformed-allow", fm.path, line,
                          "fablint:allow needs '(rule-id) reason' — an "
                          "allow without a why rots"});
    }
    for (const Allow& a : fm.allows) {
      if (!a.used) {
        ctx.out->push_back(
            {"stale-allow", fm.path, a.line,
             "suppression for rule '" + a.rule +
                 "' matches no finding; delete it (the precise check "
                 "made it obsolete)"});
      }
    }
  }
}

}  // namespace

std::vector<Finding> run_rules(const Corpus& corpus, const Options& opts) {
  std::vector<Finding> out;
  Ctx ctx{corpus, opts, &out};
  rule_entropy(ctx);
  rule_load_numeric(ctx);
  rule_hash_fanout(ctx);
  rule_raw_counter(ctx);
  rule_node_map(ctx);
  rule_hotpath_alloc(ctx);
  rule_smallfn_spill(ctx);
  rule_cross_shard(ctx);
  rule_allows(ctx);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

std::string shard_report_json(const Corpus& corpus) {
  // Deterministic, sorted, machine-readable: the work-list for the
  // sharded loop's synchronization points.
  auto escape = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  };
  auto strip_markers = [](std::string t) {
    // Member types are recorded verbatim, which includes any annotation
    // macros; the report wants the bare type.
    for (const char* m :
         {"CROSS_SHARD ", "SHARD_LANED ", "HOT_PATH ", "MAY_ALLOC "}) {
      std::size_t pos;
      while ((pos = t.find(m)) != std::string::npos) {
        t.erase(pos, std::string(m).size());
      }
    }
    return t;
  };
  std::vector<std::string> caps, members, laned, guarded, cross_fns, hot_fns;
  for (const FileModel& fm : corpus.files) {
    for (const StructDef& sd : fm.structs) {
      if (sd.is_capability) {
        caps.push_back("    {\"class\": \"" + escape(sd.qualified) +
                       "\", \"file\": \"" + escape(sd.file) +
                       "\", \"line\": " + std::to_string(sd.line) + "}");
      }
      for (const VarDecl& m : sd.members) {
        if (m.cross_shard) {
          members.push_back("    {\"class\": \"" + escape(sd.qualified) +
                            "\", \"member\": \"" + escape(m.name) +
                            "\", \"type\": \"" + escape(strip_markers(m.type_text)) +
                            "\", \"file\": \"" + escape(sd.file) +
                            "\", \"line\": " + std::to_string(m.line) + "}");
        }
        if (m.laned) {
          laned.push_back("    {\"class\": \"" + escape(sd.qualified) +
                          "\", \"member\": \"" + escape(m.name) +
                          "\", \"type\": \"" + escape(strip_markers(m.type_text)) +
                          "\", \"file\": \"" + escape(sd.file) +
                          "\", \"line\": " + std::to_string(m.line) + "}");
        }
        if (!m.guarded_by.empty()) {
          guarded.push_back("    {\"class\": \"" + escape(sd.qualified) +
                            "\", \"member\": \"" + escape(m.name) +
                            "\", \"shard\": \"" + escape(m.guarded_by) +
                            "\", \"file\": \"" + escape(sd.file) +
                            "\", \"line\": " + std::to_string(m.line) + "}");
        }
      }
    }
    for (const FunctionDef& fn : fm.functions) {
      if (!fn.is_definition) continue;
      if (fn.cross_shard) {
        cross_fns.push_back("    {\"function\": \"" + escape(fn.qualified) +
                            "\", \"file\": \"" + escape(fn.file) +
                            "\", \"line\": " + std::to_string(fn.line) +
                            ", \"hot_path\": " +
                            (fn.hot_path ? "true" : "false") + "}");
      }
      if (fn.hot_path) {
        hot_fns.push_back("    {\"function\": \"" + escape(fn.qualified) +
                          "\", \"file\": \"" + escape(fn.file) +
                          "\", \"line\": " + std::to_string(fn.line) + "}");
      }
    }
  }
  for (auto* v : {&caps, &members, &laned, &guarded, &cross_fns, &hot_fns}) {
    std::sort(v->begin(), v->end());
  }
  auto emit = [](const std::vector<std::string>& v) {
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += v[i];
      if (i + 1 < v.size()) out += ",";
      out += "\n";
    }
    return out;
  };
  std::string json = "{\n";
  json += "  \"capabilities\": [\n" + emit(caps) + "  ],\n";
  json += "  \"cross_shard_state\": [\n" + emit(members) + "  ],\n";
  json += "  \"laned_state\": [\n" + emit(laned) + "  ],\n";
  json += "  \"shard_guarded_state\": [\n" + emit(guarded) + "  ],\n";
  json += "  \"cross_shard_functions\": [\n" + emit(cross_fns) + "  ],\n";
  json += "  \"hot_path_functions\": [\n" + emit(hot_fns) + "  ]\n";
  json += "}\n";
  return json;
}

}  // namespace fablint
