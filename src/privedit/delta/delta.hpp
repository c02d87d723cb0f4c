#pragma once
// The Google Documents incremental-update ("delta") language (§IV-A).
//
// A delta is a tab-separated sequence of operations applied left-to-right
// with an imaginary cursor starting at position 0:
//   =num   move the cursor forward num characters (retain)
//   +str   insert str at the cursor and advance past it
//   -num   delete num characters at the cursor
// Examples from the paper: "=2\t-5" turns "abcdefg" into "ab";
// "=2\t-3\t+uv\t=2\t+w" turns "abcdefg" into "abuvfgw".
//
// Wire escaping: insert payloads may themselves contain tabs or backslashes;
// we escape '\t' as "\\t" and '\\' as "\\\\" inside +str payloads so the
// tab-separated framing stays unambiguous. (The real protocol relies on
// URL-encoding at the form layer; we additionally keep the delta text
// self-delimiting so it can be logged and diffed safely.)

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace privedit::delta {

enum class OpKind : std::uint8_t { kRetain, kInsert, kDelete };

struct Op {
  OpKind kind;
  std::size_t count = 0;  // retain / delete length; insert: text.size()
  std::string text;       // insert payload only

  static Op retain(std::size_t n) { return Op{OpKind::kRetain, n, {}}; }
  static Op insert(std::string s);
  static Op erase(std::size_t n) { return Op{OpKind::kDelete, n, {}}; }

  bool operator==(const Op& other) const = default;
};

class Delta {
 public:
  Delta() = default;
  explicit Delta(std::vector<Op> ops) : ops_(std::move(ops)) {}

  /// Parses the wire form. Throws ParseError on malformed input.
  static Delta parse(std::string_view wire);

  /// Serialises to the wire form (escaping insert payloads).
  std::string to_wire() const;

  /// Applies to a document. Throws Error(kInvalidArgument) if a retain or
  /// delete runs past the end of the document.
  std::string apply(std::string_view doc) const;

  /// apply() without the copy: edits `doc` in place. Every retain and
  /// delete bound is checked before the first byte changes, so a throw
  /// leaves `doc` untouched. Splices run from the last op back to the
  /// first, so each earlier op's offset stays valid; a delete followed by
  /// an insert is one replace (no tail shift when the lengths match).
  void apply_in_place(std::string& doc) const;

  /// Number of input characters consumed (retains + deletes). The delta is
  /// valid for any document with length >= input_span().
  std::size_t input_span() const;

  /// Length change the delta causes (inserted − deleted), signed.
  std::int64_t length_change() const;

  /// Merges adjacent same-kind ops, drops zero-length ops, and orders each
  /// delete before an immediately adjacent insert at the same position.
  /// This is the local canonical form used as a covert-channel
  /// countermeasure (§VI-B): many op sequences with the same effect map to
  /// one representative.
  Delta canonicalized() const;

  /// Sequential composition: compose(a, b).apply(doc) == b.apply(a.apply(doc))
  /// for every doc both sides are valid for. Used to batch the edits
  /// between two autosaves into one update (§VI-B: "maintaining each group
  /// of delta updates and merging them into a canonical form before
  /// sending"). The result is canonical.
  static Delta compose(const Delta& first, const Delta& second);

  /// Operational transformation for concurrent edits: given two deltas
  /// made against the *same* document version, transform(a, b, true)
  /// returns a' such that applying b then a' reaches the same document as
  /// applying a then transform(b, a, false) — the convergence (TP1)
  /// property. `a_wins` breaks insert ties (same-position inserts): the
  /// winning side's insert lands first. The paper leaves collaborative
  /// editing unresolved (§VII-A, deferring to SPORC); this primitive is
  /// the building block a conflict-free extension would need.
  static Delta transform(const Delta& a, const Delta& b, bool a_wins);

  /// Inverse against the document this delta was made for:
  /// d.invert(doc).apply(d.apply(doc)) == doc. The inverse of an insert is
  /// a delete; the inverse of a delete re-inserts the original characters,
  /// which is why the base document is required. Powers client-side undo.
  Delta invert(std::string_view doc) const;

  /// invert() without the whole base document: `doc_size` bounds the ops
  /// and `read(pos, n)` returns the n base characters at pos. Only deleted
  /// spans are read, so an edit's inverse costs O(edit) characters.
  Delta invert(std::size_t doc_size,
               const std::function<std::string(std::size_t, std::size_t)>&
                   read) const;

  /// True if already in canonical form.
  bool is_canonical() const;

  void push(Op op) { ops_.push_back(std::move(op)); }
  const std::vector<Op>& ops() const { return ops_; }
  bool empty() const { return ops_.empty(); }

  bool operator==(const Delta& other) const = default;

 private:
  std::vector<Op> ops_;
};

/// Computes the minimal-ish delta transforming `before` into `after` by
/// trimming the common prefix/suffix and replacing the middle. O(n), not
/// minimal for interleaved edits; used where speed matters.
Delta affix_diff(std::string_view before, std::string_view after);

/// Myers O(ND) character diff producing a minimal delta. Falls back to
/// affix_diff when the inputs are so different that Myers would cost more
/// than max_cost edit steps.
Delta myers_diff(std::string_view before, std::string_view after,
                 std::size_t max_cost = 1u << 20);

/// The anchor an anchored delta names its base by: "<size>:<crc32 hex8>"
/// of the document the delta applies to. A full-state save sent as a delta
/// carries it so the receiver applies the delta only to that exact base.
std::string base_anchor(std::string_view base);

}  // namespace privedit::delta
