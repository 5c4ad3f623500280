// fablint: structural parse — scopes, type definitions, function
// definitions with annotation markers, member declarations.
//
// This is not a C++ parser; it is a declaration scanner.  It walks the
// comment-free token stream with a scope stack, balanced-skips anything
// it does not model (template argument lists, initializers, attribute
// blocks), and extracts the four things the rules anchor to.  Function
// BODIES are recorded as token ranges and skipped — rules re-scan them
// (see rules.cpp); this keeps the parser small enough to trust.
#include <algorithm>
#include <cassert>
#include <cctype>
#include <cstdlib>

#include "model.hpp"

namespace fablint {

namespace {

bool is_ident(const Token& t, const char* text) {
  return t.kind == Tok::kIdent && t.text == text;
}

/// Joins declaration tokens into canonical type text: no spaces except
/// between two word-tokens ("unsigned int" survives, "std :: map" does
/// not).
std::string join_type(const std::vector<Token>& toks, std::size_t begin,
                      std::size_t end) {
  std::string out;
  for (std::size_t i = begin; i < end; ++i) {
    const std::string& t = toks[i].text;
    if (t.empty()) continue;
    const bool word = std::isalnum(static_cast<unsigned char>(t[0])) ||
                      t[0] == '_';
    if (!out.empty() && word) {
      const char last = out.back();
      if (std::isalnum(static_cast<unsigned char>(last)) || last == '_') {
        out += ' ';
      }
    }
    out += t;
  }
  return out;
}

/// Annotation macros that take a parenthesized argument.  Their parens
/// must never be mistaken for a function parameter list, and their
/// arguments must never be mistaken for a declarator name.
bool is_annotation_macro(const std::string& text) {
  return text == "SHARD_CAPABILITY" || text == "SHARD_GUARDED_BY" ||
         text == "SHARD_PT_GUARDED_BY" || text == "REQUIRES_SHARD" ||
         text == "ACQUIRE_SHARD" || text == "RELEASE_SHARD" ||
         text == "ASSERT_SHARD" || text == "EXCLUDES_SHARD" ||
         text == "SHARD_RETURN_CAPABILITY" || text == "FABLINT_ALLOW";
}

ContainerKind classify_container(const std::string& type_text) {
  auto has = [&](const char* needle) {
    return type_text.find(needle) != std::string::npos;
  };
  if (has("std::unordered_map<")) return ContainerKind::kUnorderedMap;
  if (has("std::unordered_set<")) return ContainerKind::kUnorderedSet;
  if (has("std::map<")) return ContainerKind::kNodeMap;
  if (has("std::set<")) return ContainerKind::kNodeSet;
  if (has("std::list<")) return ContainerKind::kNodeList;
  if (has("FlatHashMap<")) return ContainerKind::kFlatMap;
  if (has("FlatHashSet<")) return ContainerKind::kFlatSet;
  return ContainerKind::kNone;
}

class Parser {
 public:
  Parser(std::string path, std::vector<Token> all_tokens) {
    fm_.path = std::move(path);
    // Extract comment-carried suppressions, then drop trivia: rules and
    // the parser walk pure code tokens.
    for (const Token& t : all_tokens) {
      if (t.kind == Tok::kComment) scan_comment(t);
      if (t.kind == Tok::kPreproc) scan_include(t);
    }
    fm_.tokens.reserve(all_tokens.size());
    for (Token& t : all_tokens) {
      if (!is_trivia(t)) fm_.tokens.push_back(std::move(t));
    }
    for (const Token& t : fm_.tokens) {
      if (t.kind == Tok::kIdent && t.text == "SourceGroup") {
        fm_.has_source_group = true;
      }
    }
  }

  FileModel run() {
    parse_scope(/*class_name=*/"", /*top_level=*/true);
    return std::move(fm_);
  }

 private:
  FileModel fm_;
  std::size_t p_ = 0;
  std::vector<std::string> scopes_;

  const std::vector<Token>& toks() const { return fm_.tokens; }
  std::size_t size() const { return fm_.tokens.size(); }
  const Token& at(std::size_t i) const {
    static const Token eof{Tok::kEof, "", 0};
    return i < size() ? fm_.tokens[i] : eof;
  }
  const Token& cur() const { return at(p_); }
  bool done() const { return p_ >= size() || cur().kind == Tok::kEof; }

  /// Record `#include <header>`; the directive token runs to end of
  /// line, trailing comment included.
  void scan_include(const Token& t) {
    std::string d;
    for (char c : t.text) {
      if (std::isspace(static_cast<unsigned char>(c)) == 0) d += c;
    }
    const std::string tag = "#include<";
    const auto close = d.find('>');
    if (d.rfind(tag, 0) != 0 || close == std::string::npos) return;
    fm_.system_includes.emplace_back(
        t.line, d.substr(tag.size(), close - tag.size()));
  }

  void scan_comment(const Token& t) {
    const std::string tag = "fablint:allow(";
    const auto pos = t.text.find(tag);
    if (pos == std::string::npos) return;
    const auto open = pos + tag.size();
    const auto close = t.text.find(')', open);
    if (close == std::string::npos) {
      fm_.malformed_allows.push_back(t.line);
      return;
    }
    Allow a;
    a.rule = t.text.substr(open, close - open);
    a.reason = t.text.substr(close + 1);
    // Trim the reason; an allow without a why rots (see lint history).
    while (!a.reason.empty() && std::isspace(static_cast<unsigned char>(
                                    a.reason.front()))) {
      a.reason.erase(a.reason.begin());
    }
    a.file = fm_.path;
    a.line = t.line;
    if (a.rule.empty() || a.reason.empty()) {
      fm_.malformed_allows.push_back(t.line);
      return;
    }
    fm_.allows.push_back(std::move(a));
  }

  std::string qualified(const std::string& name) const {
    std::string out;
    for (const auto& s : scopes_) {
      if (s.empty()) continue;
      out += s;
      out += "::";
    }
    return out + name;
  }

  /// Skip a balanced group starting at an opener token (`(`, `[`, `{`).
  /// Leaves p_ one past the matching closer.
  void skip_balanced(const char* open, const char* close) {
    assert(cur().text == open);
    int depth = 0;
    while (!done()) {
      if (cur().kind == Tok::kPunct) {
        if (cur().text == open) ++depth;
        if (cur().text == close && --depth == 0) {
          ++p_;
          return;
        }
      }
      ++p_;
    }
  }

  /// Skip a template argument list starting at `<`.  Heals on `;` or
  /// unbalanced braces (a stray less-than comparison can't occur in the
  /// declaration positions this is called from).
  void skip_angles() {
    assert(cur().text == "<");
    int depth = 0;
    while (!done()) {
      const std::string& t = cur().text;
      if (cur().kind == Tok::kPunct) {
        if (t == "<") ++depth;
        else if (t == ">") { if (--depth == 0) { ++p_; return; } }
        else if (t == ">>") { depth -= 2; if (depth <= 0) { ++p_; return; } }
        else if (t == "(") { skip_balanced("(", ")"); continue; }
        else if (t == ";" || t == "{" || t == "}") return;  // heal
      }
      ++p_;
    }
  }

  /// Parse one namespace/class scope until the matching `}` (or EOF at
  /// top level).  `class_name` is non-empty inside a class body.
  void parse_scope(const std::string& class_name, bool top_level) {
    while (!done()) {
      const Token& t = cur();
      if (t.kind == Tok::kPunct && t.text == "}") {
        if (!top_level) ++p_;
        return;
      }
      if (t.kind != Tok::kIdent) {
        if (t.kind == Tok::kPunct && t.text == "{") {
          // Stray block (extern "C" etc.): recurse anonymously.
          ++p_;
          parse_scope(class_name, false);
          continue;
        }
        ++p_;
        continue;
      }

      if (t.text == "namespace") {
        parse_namespace();
        continue;
      }
      if (t.text == "template") {
        ++p_;
        if (cur().text == "<") skip_angles();
        continue;  // the templated declaration parses normally
      }
      if (t.text == "using" || t.text == "typedef") {
        parse_alias();
        continue;
      }
      if (t.text == "friend") {
        skip_to_semi();
        continue;
      }
      if (t.text == "static_assert") {
        skip_to_semi();
        continue;
      }
      if (t.text == "public" || t.text == "protected" ||
          t.text == "private") {
        if (at(p_ + 1).text == ":") {
          p_ += 2;
          continue;
        }
      }
      if (t.text == "enum") {
        parse_enum();
        continue;
      }
      if (t.text == "class" || t.text == "struct" || t.text == "union") {
        if (parse_struct(class_name)) continue;
        // fell through: elaborated type in a declaration ("struct X x;")
      }
      parse_declaration(class_name);
    }
  }

  void parse_namespace() {
    ++p_;  // namespace
    std::string name;
    while (cur().kind == Tok::kIdent) {
      if (!name.empty()) name += "::";
      name += cur().text;
      ++p_;
      if (cur().text == "::") ++p_;
      else break;
    }
    if (cur().text == "=") {  // namespace alias
      skip_to_semi();
      return;
    }
    if (cur().text == "{") {
      ++p_;
      scopes_.push_back(name);  // may be "" (anonymous)
      parse_scope("", false);
      scopes_.pop_back();
    }
  }

  void parse_alias() {
    // using X = <type> ;   |   typedef <type> X ;   |  using namespace ...
    const bool is_using = cur().text == "using";
    ++p_;
    if (is_using && is_ident(cur(), "namespace")) {
      skip_to_semi();
      return;
    }
    const std::size_t start = p_;
    std::size_t eq = 0;
    while (!done() && cur().text != ";") {
      if (cur().text == "=") eq = p_;
      if (cur().text == "<") { skip_angles(); continue; }
      if (cur().text == "(") { skip_balanced("(", ")"); continue; }
      if (cur().text == "{" || cur().text == "}") return;  // heal
      ++p_;
    }
    const std::size_t semi = p_;
    if (!done()) ++p_;
    if (is_using && eq != 0) {
      const std::string name = join_type(fm_.tokens, start, eq);
      fm_.aliases[name] = join_type(fm_.tokens, eq + 1, semi);
    } else if (!is_using && semi > start + 1) {
      // typedef: name is the last identifier.
      const std::string name = at(semi - 1).text;
      fm_.aliases[name] = join_type(fm_.tokens, start, semi - 1);
    }
  }

  void parse_enum() {
    ++p_;  // enum
    if (is_ident(cur(), "class") || is_ident(cur(), "struct")) ++p_;
    std::string name;
    if (cur().kind == Tok::kIdent) {
      name = cur().text;
      ++p_;
    }
    // Record the underlying type as an alias so the layout engine can
    // size structs holding enums (`enum class Kind : std::uint8_t`).
    std::size_t colon = 0;
    const std::size_t scan_begin = p_;
    while (!done() && cur().text != "{" && cur().text != ";") {
      if (cur().text == ":" && colon == 0) colon = p_;
      ++p_;
    }
    if (!name.empty()) {
      fm_.aliases[name] = colon != 0 && colon >= scan_begin
                              ? join_type(fm_.tokens, colon + 1, p_)
                              : "int";
    }
    if (cur().text == "{") skip_balanced("{", "}");
    skip_to_semi();
  }

  void skip_to_semi() {
    while (!done() && cur().text != ";") {
      if (cur().text == "(") { skip_balanced("(", ")"); continue; }
      if (cur().text == "{") { skip_balanced("{", "}"); continue; }
      if (cur().text == "}") return;  // heal at scope close
      ++p_;
    }
    if (cur().text == ";") ++p_;
  }

  /// Parse `class/struct [attrs] Name [final] [: bases] { ... } [decl];`
  /// Returns false when this was an elaborated type specifier inside a
  /// declaration (no body and no plain `;` right after the name).
  bool parse_struct(const std::string& enclosing_class) {
    const std::size_t save = p_;
    ++p_;  // class/struct/union
    std::string name;
    bool is_capability = false;
    // Header: annotation macros, then the name.
    while (!done()) {
      const Token& t = cur();
      if (t.kind == Tok::kIdent) {
        if (t.text == "SHARD_CAPABILITY") {
          is_capability = true;
          ++p_;
          if (cur().text == "(") skip_balanced("(", ")");
          continue;
        }
        if (t.text == "alignas" || t.text == "FABLINT_ALLOW") {
          ++p_;
          if (cur().text == "(") skip_balanced("(", ")");
          continue;
        }
        if (t.text == "final") {
          ++p_;
          continue;
        }
        name = t.text;
        ++p_;
        if (cur().text == "<") skip_angles();  // specialization
        continue;
      }
      if (t.text == "[") { skip_balanced("[", "]"); continue; }
      break;
    }
    if (cur().text == ";") {  // forward declaration
      ++p_;
      return true;
    }
    if (cur().text == ":") {  // base-clause
      while (!done() && cur().text != "{") {
        if (cur().text == "<") { skip_angles(); continue; }
        if (cur().text == ";" || cur().text == "}") { return true; }
        ++p_;
      }
    }
    if (cur().text != "{") {
      // `struct X x;` / `struct X* p;` inside a declaration: rewind and
      // let parse_declaration handle the whole run.
      p_ = save + 1;
      return false;
    }
    const int line = cur().line;
    ++p_;  // {
    StructDef def;
    def.name = name;
    def.file = fm_.path;
    def.line = line;
    def.is_capability = is_capability;
    const std::string qual_base =
        enclosing_class.empty() ? name : enclosing_class + "::" + name;
    def.qualified = qualified(qual_base);
    // Members are collected into the CURRENT struct via a fresh scope.
    fm_.structs.emplace_back(std::move(def));
    structs_stack_.push_back(fm_.structs.size() - 1);
    scopes_.push_back(qual_base);
    parse_scope(qual_base, false);
    scopes_.pop_back();
    structs_stack_.pop_back();
    // Trailing declarator (`struct {...} x;`) or plain `;`.
    skip_to_semi();
    return true;
  }

  /// Indices into fm_.structs, NOT pointers: a nested parse_struct
  /// grows the vector and would invalidate any reference held across
  /// the recursive parse_scope call.
  std::vector<std::size_t> structs_stack_;

  /// Parse one declaration run at namespace/class scope: a member
  /// variable, a function prototype, or a function definition.
  void parse_declaration(const std::string& class_name) {
    const std::size_t start = p_;
    const int line = cur().line;
    bool saw_eq = false;          // top-level `=` => variable initializer
    std::size_t params_open = 0;  // candidate function parameter list
    std::size_t params_close = 0;
    bool after_params = false;

    while (!done()) {
      const Token& t = cur();
      if (t.kind == Tok::kPunct) {
        if (t.text == ";") {
          ++p_;
          finish_simple_decl(class_name, start, p_ - 1, line, params_open,
                             params_close, saw_eq);
          return;
        }
        if (t.text == "}") return;  // heal: scope close without semi
        if (t.text == "=") {
          // `operator=` keeps going; anything else is an initializer.
          if (!(p_ > start && is_ident(at(p_ - 1), "operator"))) {
            saw_eq = true;
          }
          ++p_;
          continue;
        }
        if (t.text == "<" && p_ > start && at(p_ - 1).kind == Tok::kIdent) {
          skip_angles();
          continue;
        }
        if (t.text == "[") { skip_balanced("[", "]"); continue; }
        if (t.text == "(") {
          const std::size_t open = p_;
          // `SHARD_GUARDED_BY(x)` after a declarator is an attribute,
          // not a parameter list: skip it without promoting the decl to
          // a function candidate (and without clobbering params_open of
          // a real prototype like `f(int) REQUIRES_SHARD(s);`).
          const bool macro_parens =
              p_ > start && is_annotation_macro(at(p_ - 1).text);
          skip_balanced("(", ")");
          if (!saw_eq && !macro_parens) {
            params_open = open;
            params_close = p_ - 1;
            after_params = true;
          }
          continue;
        }
        if (t.text == ":" && after_params && !saw_eq) {
          // Constructor member-init list: `name(args)` / `name{args}`
          // pairs, then the body brace.
          ++p_;
          while (!done()) {
            while (cur().kind == Tok::kIdent || cur().text == "::") ++p_;
            if (cur().text == "<") skip_angles();
            if (cur().text == "(") skip_balanced("(", ")");
            else if (cur().text == "{") {
              // Ambiguous: `member{init}` vs the function body.  An
              // initializer brace is followed by `,` or `{`; the body
              // brace terminates the declaration.  Probe: find the
              // matching close and look at what follows.
              const std::size_t probe = p_;
              skip_balanced("{", "}");
              if (cur().text == "," || cur().text == "{") {
                // it was an initializer; continue the init list
              } else {
                p_ = probe;  // the body brace
                break;
              }
            }
            if (cur().text == ",") { ++p_; continue; }
            break;
          }
          continue;
        }
        if (t.text == "{") {
          if (saw_eq) {  // braced initializer inside `= {...}`
            skip_balanced("{", "}");
            continue;
          }
          if (params_open != 0) {
            finish_function(class_name, start, line, params_open,
                            params_close, /*body_open=*/p_);
            return;
          }
          // `name{init}` default member initializer: the matching close
          // brace is followed by `;` (or `,` in a multi-declarator
          // run).  Skip the braces and let the `;` finish the
          // declaration, so brace-initialized members — most of the
          // SHARD_LANED lane arrays — still land in the inventory.
          {
            const std::size_t probe = p_;
            skip_balanced("{", "}");
            if (cur().text == ";" || cur().text == ",") continue;
            p_ = probe;
          }
          // Unmodeled brace at declaration scope: skip it.
          skip_balanced("{", "}");
          skip_to_semi();
          return;
        }
      }
      ++p_;
    }
  }

  /// Annotation markers present in [begin, end).
  struct Markers {
    bool hot_path = false, may_alloc = false, cross_shard = false;
    bool laned = false;
    std::string guarded_by;
  };
  Markers scan_markers(std::size_t begin, std::size_t end) {
    Markers m;
    for (std::size_t i = begin; i < end; ++i) {
      const Token& t = at(i);
      if (t.kind != Tok::kIdent) continue;
      if (t.text == "HOT_PATH") m.hot_path = true;
      else if (t.text == "MAY_ALLOC") m.may_alloc = true;
      else if (t.text == "CROSS_SHARD") m.cross_shard = true;
      else if (t.text == "SHARD_LANED") m.laned = true;
      else if (t.text == "SHARD_GUARDED_BY" && at(i + 1).text == "(") {
        std::size_t j = i + 2;
        std::string arg;
        int depth = 1;
        while (j < end && depth > 0) {
          if (at(j).text == "(") ++depth;
          if (at(j).text == ")" && --depth == 0) break;
          arg += at(j).text;
          ++j;
        }
        m.guarded_by = arg;
      } else if (t.text == "FABLINT_ALLOW" && at(i + 1).text == "(" &&
                 at(i + 2).kind == Tok::kString) {
        record_macro_allow(at(i + 2).text, t.line);
      }
    }
    return m;
  }

  void record_macro_allow(const std::string& payload, int line) {
    // Payload form: "rule: reason".
    const auto colon = payload.find(':');
    Allow a;
    a.file = fm_.path;
    a.line = line;
    if (colon == std::string::npos) {
      fm_.malformed_allows.push_back(line);
      return;
    }
    a.rule = payload.substr(0, colon);
    a.reason = payload.substr(colon + 1);
    while (!a.reason.empty() && std::isspace(static_cast<unsigned char>(
                                    a.reason.front()))) {
      a.reason.erase(a.reason.begin());
    }
    if (a.rule.empty() || a.reason.empty()) {
      fm_.malformed_allows.push_back(line);
      return;
    }
    fm_.allows.push_back(std::move(a));
  }

  /// A `;`-terminated run: member variable or function prototype.
  void finish_simple_decl(const std::string& class_name, std::size_t begin,
                          std::size_t end, int line, std::size_t params_open,
                          std::size_t /*params_close*/, bool saw_eq) {
    const Markers m = scan_markers(begin, end);
    if (params_open != 0 && !saw_eq) {
      // Function prototype (or most-vexing-parse variable; both are
      // fine to record as a declaration — markers merge by name).
      std::string name, qual_class;
      if (!extract_function_name(begin, params_open, &name, &qual_class)) {
        return;
      }
      FunctionDef fd;
      fd.name = name;
      fd.class_name = qual_class.empty() ? class_name : qual_class;
      fd.qualified = qualified(qual_class.empty()
                                   ? name
                                   : qual_class + "::" + name);
      fd.file = fm_.path;
      fd.line = line;
      fd.is_definition = false;
      fd.hot_path = m.hot_path;
      fd.may_alloc = m.may_alloc;
      fd.cross_shard = m.cross_shard;
      fm_.functions.push_back(std::move(fd));
      return;
    }
    // Member / namespace-scope variable: name is the last identifier
    // before the initializer (or before the `;`).
    std::size_t name_end = end;
    for (std::size_t i = begin; i < end; ++i) {
      if (at(i).text == "=" ||
          (at(i).text == "{" && i > begin)) {
        name_end = i;
        break;
      }
    }
    std::size_t name_idx = 0;
    for (std::size_t i = name_end; i-- > begin;) {
      if (at(i).text == ")") {
        // Trailing annotation macro call: walk back over its argument
        // group so `tick_ SHARD_GUARDED_BY(shard_)` names `tick_`.
        int depth = 0;
        while (i > begin) {
          if (at(i).text == ")") ++depth;
          if (at(i).text == "(" && --depth == 0) break;
          --i;
        }
        continue;
      }
      if (at(i).kind == Tok::kIdent) {
        if (is_annotation_macro(at(i).text)) continue;
        // Skip array extents: `Bucket buckets_[5][1024]`.
        if (at(i + 1).text == "[" || at(i).text == "]") {
          if (at(i + 1).text != "[") continue;
        }
        name_idx = i;
        break;
      }
      if (at(i).text == "]") {
        // walk back over the extent
        int depth = 0;
        while (i > begin) {
          if (at(i).text == "]") ++depth;
          if (at(i).text == "[" && --depth == 0) break;
          --i;
        }
        continue;
      }
    }
    if (name_idx == 0 && at(begin).kind != Tok::kIdent) return;
    if (name_idx == 0) name_idx = begin;
    if (is_ident(at(begin), "static")) return;  // not instance state
    VarDecl v;
    v.name = at(name_idx).text;
    v.type_text = join_type(fm_.tokens, begin, name_idx);
    v.container = classify_container(v.type_text);
    v.cross_shard = m.cross_shard;
    v.laned = m.laned;
    v.guarded_by = m.guarded_by;
    v.line = line;
    if (!structs_stack_.empty() && !class_name.empty()) {
      fm_.structs[structs_stack_.back()].members.push_back(std::move(v));
    }
    // Namespace-scope variables are not modeled further.
  }

  /// Walk back from the parameter-list `(` to the function name, with
  /// optional `A::B::` qualification and operator forms.
  bool extract_function_name(std::size_t begin, std::size_t params_open,
                             std::string* name, std::string* qual_class) {
    std::size_t i = params_open;
    if (i == 0 || i <= begin) return false;
    --i;  // token before '('
    // operator()(…) : params_open's '(' is preceded by `)` of `operator()`.
    if (at(i).text == ")" && i >= 1 && at(i - 1).text == "(" && i >= 2 &&
        is_ident(at(i - 2), "operator")) {
      *name = "operator()";
      i = i - 2;
    } else if (at(i).kind == Tok::kPunct && i >= 1 &&
               is_ident(at(i - 1), "operator")) {
      *name = "operator" + at(i).text;
      i = i - 1;
    } else if (at(i).kind == Tok::kPunct && i >= 2 &&
               at(i - 1).kind == Tok::kPunct &&
               is_ident(at(i - 2), "operator")) {
      *name = "operator" + at(i - 1).text + at(i).text;
      i = i - 2;
    } else if (at(i).kind == Tok::kIdent) {
      if (is_ident(at(i), "operator")) return false;  // conversion op: skip
      *name = at(i).text;
      if (i >= 1 && is_ident(at(i - 1), "operator")) {
        // `operator bool` — keep the two-token name.
        *name = "operator " + *name;
        i = i - 1;
      } else if (i >= 1 && at(i - 1).text == "~") {
        *name = "~" + *name;
        i = i - 1;
      }
    } else {
      return false;
    }
    // Qualification: `EventLoop::` or `A::B::` before the name.
    std::string qual;
    while (i >= 2 && at(i - 1).text == "::" && at(i - 2).kind == Tok::kIdent) {
      qual = qual.empty() ? at(i - 2).text : at(i - 2).text + "::" + qual;
      i -= 2;
      if (i >= 1 && at(i - 1).text == ">") break;  // templated class: stop
    }
    *qual_class = qual;
    return true;
  }

  void parse_params(std::size_t open, std::size_t close,
                    std::vector<VarDecl>* out) {
    // Split [open+1, close) on top-level commas; each piece is
    // `type... name [= default]` (name optional).
    std::size_t i = open + 1;
    std::size_t piece_begin = i;
    int depth = 0;
    auto flush = [&](std::size_t piece_end) {
      if (piece_end <= piece_begin) return;
      std::size_t name_end = piece_end;
      for (std::size_t k = piece_begin; k < piece_end; ++k) {
        if (at(k).text == "=") { name_end = k; break; }
      }
      if (name_end <= piece_begin) return;
      std::size_t name_idx = name_end - 1;
      if (at(name_idx).kind != Tok::kIdent) return;  // unnamed param
      if (name_end - piece_begin < 2) return;        // type only
      VarDecl v;
      v.name = at(name_idx).text;
      v.type_text = join_type(fm_.tokens, piece_begin, name_idx);
      v.container = classify_container(v.type_text);
      v.line = at(name_idx).line;
      out->push_back(std::move(v));
    };
    while (i < close) {
      const std::string& t = at(i).text;
      if (t == "(" || t == "[" || t == "{" || t == "<") ++depth;
      else if (t == ")" || t == "]" || t == "}" || t == ">") --depth;
      else if (t == "," && depth == 0) {
        flush(i);
        piece_begin = i + 1;
      }
      ++i;
    }
    flush(close);
  }

  void finish_function(const std::string& class_name, std::size_t begin,
                       int line, std::size_t params_open,
                       std::size_t params_close, std::size_t body_open) {
    std::string name, qual_class;
    if (!extract_function_name(begin, params_open, &name, &qual_class)) {
      // Unrecognized construct with a body: skip it safely.
      skip_balanced("{", "}");
      return;
    }
    const Markers m = scan_markers(begin, body_open);
    FunctionDef fd;
    fd.name = name;
    fd.class_name = qual_class.empty() ? class_name : qual_class;
    fd.qualified =
        qualified(qual_class.empty() ? name : qual_class + "::" + name);
    fd.file = fm_.path;
    fd.line = line;
    fd.hot_path = m.hot_path;
    fd.may_alloc = m.may_alloc;
    fd.cross_shard = m.cross_shard;
    parse_params(params_open, params_close, &fd.params);
    skip_balanced("{", "}");  // leaves p_ one past the closing brace
    fd.body_begin = body_open + 1;
    fd.body_end = p_ - 1;
    fm_.functions.push_back(std::move(fd));
  }
};

}  // namespace

FileModel parse_file(std::string path, std::vector<Token> tokens) {
  return Parser(std::move(path), std::move(tokens)).run();
}

namespace {
struct Markers2 {
  bool hot = false, alloc = false, cross = false;
};
}  // namespace

void Corpus::index() {
  for (FileModel& fm : files) {
    for (FunctionDef& fn : fm.functions) {
      if (fn.is_definition) {
        functions_by_name[fn.name].push_back(&fn);
      }
    }
    for (const StructDef& sd : fm.structs) {
      structs_by_name[sd.name] = &sd;
      structs_by_name[sd.qualified] = &sd;
    }
    for (const auto& [name, target] : fm.aliases) {
      aliases[name] = target;
      // `using SmallFn = BasicSmallFn<152>;` carries the inline size.
      if (name == "SmallFn") {
        const auto lt = target.find('<');
        const auto gt = target.find('>', lt == std::string::npos ? 0 : lt);
        if (lt != std::string::npos && gt != std::string::npos) {
          smallfn_inline_bytes = static_cast<std::size_t>(
              std::atoll(target.substr(lt + 1, gt - lt - 1).c_str()));
        }
      }
    }
  }
  // Merge prototype markers onto definitions (headers carry HOT_PATH /
  // MAY_ALLOC / CROSS_SHARD; the .cpp definition inherits them).
  std::map<std::string, Markers2> proto;
  for (const FileModel& fm : files) {
    for (const FunctionDef& fn : fm.functions) {
      if (!fn.is_definition) {
        Markers2& m = proto[fn.qualified];
        m.hot |= fn.hot_path;
        m.alloc |= fn.may_alloc;
        m.cross |= fn.cross_shard;
      }
    }
  }
  for (FileModel& fm : files) {
    for (FunctionDef& fn : fm.functions) {
      if (!fn.is_definition) continue;
      auto it = proto.find(fn.qualified);
      if (it == proto.end()) {
        // Out-of-line definitions often have an unqualified prototype
        // namespace mismatch; fall back to Class::name.
        if (!fn.class_name.empty()) {
          it = proto.find(fn.class_name + "::" + fn.name);
        }
      }
      if (it != proto.end()) {
        fn.hot_path |= it->second.hot;
        fn.may_alloc |= it->second.alloc;
        fn.cross_shard |= it->second.cross;
      }
    }
  }
}

}  // namespace fablint
