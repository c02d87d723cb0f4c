#include "privedit/delta/block_diff.hpp"

#include <algorithm>
#include <unordered_map>

#include "privedit/util/bytes.hpp"
#include "privedit/util/crc32.hpp"
#include "privedit/util/error.hpp"

namespace privedit::delta {
namespace {

/// rsync-style 32-bit weak checksum over a fixed window: the byte sum in
/// the low half and the position-weighted sum in the high half, both mod
/// 2^16, so the window can slide one byte in O(1).
class RollingSum {
 public:
  void init(std::string_view window) {
    a_ = b_ = 0;
    len_ = static_cast<std::uint32_t>(window.size());
    for (std::size_t i = 0; i < window.size(); ++i) {
      const auto x = static_cast<std::uint8_t>(window[i]);
      a_ += x;
      b_ += static_cast<std::uint32_t>(window.size() - i) * x;
    }
  }

  void roll(char out, char in) {
    const auto xo = static_cast<std::uint32_t>(static_cast<std::uint8_t>(out));
    const auto xi = static_cast<std::uint32_t>(static_cast<std::uint8_t>(in));
    a_ = a_ - xo + xi;
    b_ = b_ - len_ * xo + a_;
  }

  std::uint32_t value() const {
    return (a_ & 0xffffu) | ((b_ & 0xffffu) << 16);
  }

 private:
  std::uint32_t a_ = 0;
  std::uint32_t b_ = 0;
  std::uint32_t len_ = 0;
};

void require_block_size(std::size_t block_size) {
  if (block_size == 0) {
    throw Error(ErrorCode::kInvalidArgument, "block diff: block size 0");
  }
}

void append_hex8(std::string& out, std::uint32_t value) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int shift = 28; shift >= 0; shift -= 4) {
    out += kHex[(value >> shift) & 0xf];
  }
}

}  // namespace

std::uint64_t block_digest(std::string_view block) {
  RollingSum weak;
  weak.init(block);
  return (static_cast<std::uint64_t>(weak.value()) << 32) |
         crc32(as_bytes(block));
}

std::vector<std::uint64_t> block_digests(std::string_view data,
                                         std::size_t block_size) {
  require_block_size(block_size);
  std::vector<std::uint64_t> out;
  out.reserve(data.size() / block_size + 1);
  for (std::size_t off = 0; off < data.size(); off += block_size) {
    out.push_back(
        block_digest(data.substr(off, std::min(block_size,
                                               data.size() - off))));
  }
  return out;
}

std::size_t repair_block_size(std::size_t content_size) {
  return std::clamp<std::size_t>(content_size / 64, kDefaultBlockSize, 4096);
}

Delta block_diff_from_digests(const std::vector<std::uint64_t>& source_digests,
                              std::uint64_t source_size,
                              std::string_view target,
                              std::size_t block_size) {
  require_block_size(block_size);
  std::vector<Op> ops;
  std::uint64_t consumed = 0;  // source bytes already retained or deleted
  std::string pending;         // literal bytes since the last match
  // Deletes the source skipped up to `source_end`, then inserts the
  // pending literal in its place.
  const auto flush = [&](std::uint64_t source_end) {
    if (source_end > consumed) ops.push_back(Op::erase(source_end - consumed));
    if (!pending.empty()) ops.push_back(Op::insert(std::move(pending)));
    pending.clear();
    consumed = source_end;
  };

  // Only whole source blocks are matched; the short tail block (if any) is
  // deleted and its bytes, when the target still has them, ride as literal.
  const std::size_t full_blocks = std::min<std::size_t>(
      source_digests.size(), static_cast<std::size_t>(source_size / block_size));
  std::size_t pos = 0;
  if (full_blocks > 0 && target.size() >= block_size) {
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> table;
    table.reserve(full_blocks);
    for (std::size_t i = 0; i < full_blocks; ++i) {
      table[static_cast<std::uint32_t>(source_digests[i] >> 32)].push_back(
          static_cast<std::uint32_t>(i));
    }
    RollingSum roll;
    roll.init(target.substr(0, block_size));
    while (pos + block_size <= target.size()) {
      bool matched = false;
      if (const auto it = table.find(roll.value()); it != table.end()) {
        for (const std::uint32_t index : it->second) {
          const std::uint64_t block_begin =
              static_cast<std::uint64_t>(index) * block_size;
          // In source order only, confirmed on the strong half. The source
          // bytes are not in hand, so this can still be a collision — the
          // receiver's target anchor is the net.
          if (block_begin < consumed ||
              static_cast<std::uint32_t>(source_digests[index]) !=
                  crc32(as_bytes(target.substr(pos, block_size)))) {
            continue;
          }
          flush(block_begin);
          if (!ops.empty() && ops.back().kind == OpKind::kRetain) {
            ops.back().count += block_size;  // contiguous with the last match
          } else {
            ops.push_back(Op::retain(block_size));
          }
          consumed += block_size;
          pos += block_size;
          if (pos + block_size <= target.size()) {
            roll.init(target.substr(pos, block_size));
          }
          matched = true;
          break;
        }
      }
      if (!matched) {
        pending += target[pos];
        if (pos + block_size < target.size()) {
          roll.roll(target[pos], target[pos + block_size]);
        }
        ++pos;
      }
    }
  }
  pending.append(target.substr(pos));
  flush(source_size);
  // Canonical form: apply retains whatever follows the last op anyway.
  if (!ops.empty() && ops.back().kind == OpKind::kRetain) ops.pop_back();
  return Delta(std::move(ops));
}

std::string block_digests_to_wire(
    const std::vector<std::uint64_t>& digests) {
  std::string out;
  out.reserve(digests.size() * 16);
  for (const std::uint64_t digest : digests) {
    append_hex8(out, static_cast<std::uint32_t>(digest >> 32));
    append_hex8(out, static_cast<std::uint32_t>(digest));
  }
  return out;
}

std::vector<std::uint64_t> block_digests_from_wire(std::string_view wire) {
  if (wire.size() % 16 != 0) {
    throw ParseError("block digest wire: not a whole number of digests");
  }
  std::vector<std::uint64_t> out;
  out.reserve(wire.size() / 16);
  for (std::size_t pos = 0; pos < wire.size(); pos += 16) {
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < 16; ++i) {
      const char c = wire[pos + i];
      std::uint32_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint32_t>(c - 'a' + 10);
      } else {
        throw ParseError("block digest wire: bad hex digit");
      }
      value = (value << 4) | digit;
    }
    out.push_back(value);
  }
  return out;
}

}  // namespace privedit::delta
