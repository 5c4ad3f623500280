// fablint: structural model of a translation unit (DESIGN.md §15).
//
// fablint does not typecheck; it builds just enough structure to anchor
// rules to declarations — the scope tree, function definitions with
// their annotation markers and body token ranges, member/local variable
// declarations with container classification, and type definitions for
// the capture-footprint layout estimator.  Resolution is name-based and
// deliberately over-approximate: a rule that cannot prove a site clean
// reports it, and the waiver vocabulary (annotations.hpp) records the
// human judgement the analyzer lacks.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lexer.hpp"

namespace fablint {

/// Container classification of a declared variable's type.
enum class ContainerKind {
  kNone,
  kNodeMap,        // std::map / std::unordered_map (node-based)
  kNodeSet,        // std::set / std::unordered_set
  kNodeList,       // std::list
  kUnorderedMap,   // std::unordered_map (also kNodeMap; hash-ordered)
  kUnorderedSet,   // std::unordered_set
  kFlatMap,        // FlatHashMap (open addressing; hash-layout order)
  kFlatSet,        // FlatHashSet
};

/// True when iteration order over the container depends on hash layout.
inline bool hash_ordered(ContainerKind k) {
  return k == ContainerKind::kUnorderedMap ||
         k == ContainerKind::kUnorderedSet || k == ContainerKind::kFlatMap ||
         k == ContainerKind::kFlatSet;
}

/// True when the container allocates a node per element.
inline bool node_based(ContainerKind k) {
  return k == ContainerKind::kNodeMap || k == ContainerKind::kNodeSet ||
         k == ContainerKind::kNodeList || k == ContainerKind::kUnorderedMap ||
         k == ContainerKind::kUnorderedSet;
}

/// A suppression attached to a declaration or a source line: either the
/// FABLINT_ALLOW("rule: why") macro or a `fablint:allow(rule) why`
/// comment on the same or the preceding line.
struct Allow {
  std::string rule;
  std::string reason;
  std::string file;
  int line = 0;
  mutable bool used = false;
};

/// A variable declaration (class member, local, or parameter).
struct VarDecl {
  std::string name;
  std::string type_text;   // declaration tokens joined, minus the name
  ContainerKind container = ContainerKind::kNone;
  bool cross_shard = false;     // CROSS_SHARD marker on the declaration
  bool laned = false;           // SHARD_LANED marker on the declaration
  std::string guarded_by;       // SHARD_GUARDED_BY(<expr>) argument
  int line = 0;
};

/// A function (or method) definition.
struct FunctionDef {
  std::string name;         // unqualified
  std::string qualified;    // Namespace::Class::name
  std::string class_name;   // enclosing class ("" for free functions)
  std::string file;
  int line = 0;
  bool hot_path = false;    // HOT_PATH marker
  bool may_alloc = false;   // MAY_ALLOC waiver
  bool cross_shard = false; // CROSS_SHARD marker
  /// False for in-class prototypes of out-of-line definitions; markers
  /// placed on the prototype are merged onto the definition at index().
  bool is_definition = true;
  std::vector<VarDecl> params;
  /// Token index range of the body (inside the file's token vector),
  /// [begin, end) excluding the outer braces.  Zero-width for
  /// prototypes.
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

/// A struct/class definition with its members (for the layout engine
/// and the cross-shard inventory).
struct StructDef {
  std::string name;        // unqualified
  std::string qualified;
  std::string file;
  int line = 0;
  std::vector<VarDecl> members;
  bool is_capability = false;  // SHARD_CAPABILITY on the declaration
};

/// Everything fablint extracted from one file.
struct FileModel {
  std::string path;
  std::vector<Token> tokens;
  std::vector<FunctionDef> functions;
  std::vector<StructDef> structs;
  /// using X = Y; / typedef Y X;  (local alias table)
  std::map<std::string, std::string> aliases;
  std::vector<Allow> allows;
  /// Lines carrying a `fablint:allow` comment but no parsable rule id.
  std::vector<int> malformed_allows;
  /// True if the file mentions obs::SourceGroup (raw-counter rule).
  bool has_source_group = false;
  /// `#include <header>` directives as (line, header) (load-numeric).
  std::vector<std::pair<int, std::string>> system_includes;
};

/// The whole analyzed corpus, plus cross-file indexes.
struct Corpus {
  std::vector<FileModel> files;
  /// Unqualified function name -> definitions (for name-based call
  /// graph resolution; over-approximate on purpose).
  std::map<std::string, std::vector<const FunctionDef*>> functions_by_name;
  /// Struct name (unqualified and qualified) -> definition.
  std::map<std::string, const StructDef*> structs_by_name;
  /// Merged alias table (last definition wins; the project has no
  /// conflicting aliases).
  std::map<std::string, std::string> aliases;
  /// Inline-buffer size of SmallFn, read from `BasicSmallFn<N>` in
  /// common/small_fn.hpp (0 if the alias was not seen).
  std::size_t smallfn_inline_bytes = 0;

  void index();
};

/// Parse one lexed file into a FileModel (see parse.cpp).
FileModel parse_file(std::string path, std::vector<Token> tokens);

/// A rule finding.
struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
};

}  // namespace fablint
