#include "privedit/delta/delta.hpp"

#include <charconv>

#include "privedit/util/crc32.hpp"
#include "privedit/util/error.hpp"

namespace privedit::delta {
namespace {

std::string escape_insert(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\t') {
      out += "\\t";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Cap on a single parsed retain/delete count. No real document needs a
/// larger op, and without the cap a hostile count near SIZE_MAX overflows
/// the `cursor + count` bounds checks in apply()/invert() — the sum wraps,
/// the check passes, and substr() silently duplicates document content.
constexpr std::size_t kMaxCount = std::size_t{1} << 32;

std::size_t parse_count(std::string_view digits) {
  if (digits.empty()) {
    throw ParseError("delta: missing count");
  }
  std::size_t value = 0;
  const auto* begin = digits.data();
  const auto* end = digits.data() + digits.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    throw ParseError("delta: invalid count '" + std::string(digits) + "'");
  }
  if (value > kMaxCount) {
    throw ParseError("delta: count " + std::string(digits) +
                     " exceeds the per-op limit");
  }
  return value;
}

}  // namespace

Op Op::insert(std::string s) {
  Op op;
  op.kind = OpKind::kInsert;
  op.count = s.size();
  op.text = std::move(s);
  return op;
}

Delta Delta::parse(std::string_view wire) {
  Delta delta;
  std::size_t pos = 0;
  while (pos < wire.size()) {
    const char tag = wire[pos];
    ++pos;
    if (tag == '=' || tag == '-') {
      std::size_t end = pos;
      while (end < wire.size() && wire[end] != '\t') ++end;
      const std::size_t count = parse_count(wire.substr(pos, end - pos));
      delta.push(tag == '=' ? Op::retain(count) : Op::erase(count));
      pos = end;
    } else if (tag == '+') {
      // Read until an unescaped tab.
      std::string text;
      while (pos < wire.size() && wire[pos] != '\t') {
        if (wire[pos] == '\\') {
          if (pos + 1 >= wire.size()) {
            throw ParseError("delta: dangling escape in insert");
          }
          const char esc = wire[pos + 1];
          if (esc == 't') {
            text.push_back('\t');
          } else if (esc == '\\') {
            text.push_back('\\');
          } else {
            throw ParseError("delta: unknown escape in insert");
          }
          pos += 2;
        } else {
          text.push_back(wire[pos]);
          ++pos;
        }
      }
      delta.push(Op::insert(std::move(text)));
    } else if (tag == '\t') {
      // Empty segment (e.g. trailing tab); tolerate.
      continue;
    } else {
      throw ParseError(std::string("delta: unknown op tag '") + tag + "'");
    }
    // Skip the separator if present.
    if (pos < wire.size()) {
      if (wire[pos] != '\t') {
        throw ParseError("delta: missing tab separator");
      }
      ++pos;
    }
  }
  return delta;
}

std::string Delta::to_wire() const {
  std::string out;
  bool first = true;
  for (const Op& op : ops_) {
    if (!first) out.push_back('\t');
    first = false;
    switch (op.kind) {
      case OpKind::kRetain:
        out.push_back('=');
        out += std::to_string(op.count);
        break;
      case OpKind::kDelete:
        out.push_back('-');
        out += std::to_string(op.count);
        break;
      case OpKind::kInsert:
        out.push_back('+');
        out += escape_insert(op.text);
        break;
    }
  }
  return out;
}

std::string Delta::apply(std::string_view doc) const {
  std::string out;
  out.reserve(doc.size() + 16);
  std::size_t cursor = 0;
  for (const Op& op : ops_) {
    switch (op.kind) {
      case OpKind::kRetain:
        // Overflow-proof form of `cursor + op.count > doc.size()`: the sum
        // wraps for counts near SIZE_MAX and would pass the check.
        if (op.count > doc.size() - cursor) {
          throw Error(ErrorCode::kInvalidArgument,
                      "delta apply: retain past end of document");
        }
        out.append(doc.substr(cursor, op.count));
        cursor += op.count;
        break;
      case OpKind::kInsert:
        out.append(op.text);
        break;
      case OpKind::kDelete:
        if (op.count > doc.size() - cursor) {
          throw Error(ErrorCode::kInvalidArgument,
                      "delta apply: delete past end of document");
        }
        cursor += op.count;
        break;
    }
  }
  out.append(doc.substr(cursor));
  return out;
}

void Delta::apply_in_place(std::string& doc) const {
  std::size_t cursor = 0;
  for (const Op& op : ops_) {
    if (op.kind == OpKind::kInsert) continue;
    if (op.count > doc.size() - cursor) {  // overflow-proof, as in apply()
      throw Error(ErrorCode::kInvalidArgument,
                  op.kind == OpKind::kRetain
                      ? "delta apply: retain past end of document"
                      : "delta apply: delete past end of document");
    }
    cursor += op.count;
  }
  for (std::size_t i = ops_.size(); i-- > 0;) {
    const Op& op = ops_[i];
    switch (op.kind) {
      case OpKind::kRetain:
        cursor -= op.count;
        break;
      case OpKind::kDelete:
        cursor -= op.count;
        doc.erase(cursor, op.count);
        break;
      case OpKind::kInsert:
        if (i > 0 && ops_[i - 1].kind == OpKind::kDelete) {
          --i;
          cursor -= ops_[i].count;
          doc.replace(cursor, ops_[i].count, op.text);
        } else {
          doc.insert(cursor, op.text);
        }
        break;
    }
  }
}

std::size_t Delta::input_span() const {
  std::size_t span = 0;
  for (const Op& op : ops_) {
    if (op.kind != OpKind::kInsert) span += op.count;
  }
  return span;
}

std::int64_t Delta::length_change() const {
  std::int64_t change = 0;
  for (const Op& op : ops_) {
    if (op.kind == OpKind::kInsert) {
      change += static_cast<std::int64_t>(op.count);
    } else if (op.kind == OpKind::kDelete) {
      change -= static_cast<std::int64_t>(op.count);
    }
  }
  return change;
}

Delta Delta::canonicalized() const {
  std::vector<Op> out;
  auto push_merged = [&out](Op op) {
    if (op.count == 0) return;  // drop zero-length ops
    if (!out.empty() && out.back().kind == op.kind) {
      out.back().count += op.count;
      out.back().text += op.text;
      return;
    }
    // Normalise adjacent insert+delete to delete-then-insert so the pair
    // has a single representative order.
    if (!out.empty() && out.back().kind == OpKind::kInsert &&
        op.kind == OpKind::kDelete) {
      Op ins = std::move(out.back());
      out.pop_back();
      // The delete may itself merge with an earlier delete.
      if (!out.empty() && out.back().kind == OpKind::kDelete) {
        out.back().count += op.count;
      } else {
        out.push_back(std::move(op));
      }
      out.push_back(std::move(ins));
      return;
    }
    out.push_back(std::move(op));
  };
  for (const Op& op : ops_) push_merged(op);
  // A trailing pure retain changes nothing; drop it.
  while (!out.empty() && out.back().kind == OpKind::kRetain) out.pop_back();
  return Delta(std::move(out));
}

bool Delta::is_canonical() const {
  return *this == canonicalized();
}

Delta Delta::invert(std::string_view doc) const {
  return invert(doc.size(), [doc](std::size_t pos, std::size_t n) {
    return std::string(doc.substr(pos, n));
  });
}

Delta Delta::invert(
    std::size_t doc_size,
    const std::function<std::string(std::size_t, std::size_t)>& read) const {
  Delta out;
  std::size_t cursor = 0;
  for (const Op& op : ops_) {
    switch (op.kind) {
      case OpKind::kRetain:
        if (op.count > doc_size - cursor) {  // overflow-proof bound check
          throw Error(ErrorCode::kInvalidArgument,
                      "delta invert: retain past end of document");
        }
        out.push(Op::retain(op.count));
        cursor += op.count;
        break;
      case OpKind::kInsert:
        out.push(Op::erase(op.count));
        break;
      case OpKind::kDelete:
        if (op.count > doc_size - cursor) {
          throw Error(ErrorCode::kInvalidArgument,
                      "delta invert: delete past end of document");
        }
        out.push(Op::insert(read(cursor, op.count)));
        cursor += op.count;
        break;
    }
  }
  return out.canonicalized();
}

std::string base_anchor(std::string_view base) {
  static constexpr char kHex[] = "0123456789abcdef";
  const std::uint32_t crc = crc32(as_bytes(base));
  std::string out = std::to_string(base.size()) + ":";
  for (int shift = 28; shift >= 0; shift -= 4) {
    out += kHex[(crc >> shift) & 0xf];
  }
  return out;
}

}  // namespace privedit::delta
