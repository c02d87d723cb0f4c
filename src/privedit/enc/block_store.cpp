#include "privedit/enc/block_store.hpp"

#include "privedit/util/error.hpp"

namespace privedit::enc {

BlockStore::BlockStore(std::size_t block_chars, BlockPolicy policy,
                       std::uint64_t skiplist_seed)
    : block_chars_(block_chars), policy_(policy), list_(skiplist_seed) {
  if (block_chars_ == 0 || block_chars_ > kMaxBlockChars) {
    throw Error(ErrorCode::kInvalidArgument,
                "BlockStore: block_chars must be in [1,8]");
  }
}

void BlockStore::chunk(std::string_view text,
                       std::vector<std::string>& out) const {
  out.clear();
  if (text.empty()) return;
  if (policy_.split == BlockPolicy::Split::kEven) {
    const std::size_t k = (text.size() + block_chars_ - 1) / block_chars_;
    const std::size_t base = text.size() / k;
    std::size_t extra = text.size() % k;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t len = base + (extra > 0 ? 1 : 0);
      if (extra > 0) --extra;
      out.emplace_back(text.substr(pos, len));
      pos += len;
    }
  } else {  // kGreedy
    for (std::size_t pos = 0; pos < text.size(); pos += block_chars_) {
      out.emplace_back(text.substr(pos, block_chars_));
    }
  }
}

void BlockStore::reset(std::string_view plaintext) {
  list_.clear();
  chunk(plaintext, chunk_scratch_);
  std::size_t elem = 0;
  for (std::string& piece : chunk_scratch_) {
    const std::size_t weight = piece.size();
    list_.insert(elem++, Block{std::move(piece), {}, 0}, weight);
  }
  chunk_scratch_.clear();
}

RegionChange BlockStore::replace_range(std::size_t pos, std::size_t del_count,
                                       std::string_view text) {
  const std::size_t total = char_count();
  if (pos > total || del_count > total - pos) {
    throw Error(ErrorCode::kInvalidArgument,
                "BlockStore: edit range out of bounds");
  }
  if (del_count == 0 && text.empty()) {
    return RegionChange{};
  }

  // Determine the affected block range [first, last] and the chars kept
  // on each side of the edit within those blocks.
  std::size_t first = 0;
  std::string prefix, suffix;
  std::size_t last_plus_one = 0;  // exclusive

  if (list_.empty()) {
    first = 0;
    last_plus_one = 0;
  } else if (del_count > 0) {
    const auto start = list_.find(pos);
    first = start.element_index;
    prefix = list_.get(first).plain.substr(0, start.offset);
    const auto end = list_.find(pos + del_count - 1);
    last_plus_one = end.element_index + 1;
    suffix = list_.get(end.element_index).plain.substr(end.offset + 1);
  } else {
    // Pure insertion.
    if (pos == total) {
      // Append: grow the last block.
      first = list_.size() - 1;
      last_plus_one = list_.size();
      prefix = list_.get(first).plain;
    } else if (pos == 0) {
      first = 0;
      last_plus_one = 1;
      suffix = list_.get(0).plain;
    } else {
      const auto loc = list_.find(pos);
      if (loc.offset == 0) {
        // Boundary: extend the previous block (typing fills blocks).
        first = loc.element_index - 1;
        last_plus_one = loc.element_index;
        prefix = list_.get(first).plain;
      } else {
        first = loc.element_index;
        last_plus_one = loc.element_index + 1;
        prefix = list_.get(first).plain.substr(0, loc.offset);
        suffix = list_.get(first).plain.substr(loc.offset);
      }
    }
  }

  std::string& region = region_scratch_;
  region.clear();
  region += prefix;
  region += text;
  region += suffix;

  // Optional defragmentation: absorb the right neighbour when a deletion
  // leaves the region very short.
  if (policy_.merge_on_delete && del_count > 0 && !region.empty() &&
      region.size() < policy_.merge_threshold &&
      last_plus_one < list_.size()) {
    region += list_.get(last_plus_one).plain;
    ++last_plus_one;
  }

  chunk(region, chunk_scratch_);

  // Swap out the affected blocks.
  const std::size_t old_count = last_plus_one - first;
  std::vector<Block> removed;
  removed.reserve(old_count);
  for (std::size_t i = 0; i < old_count; ++i) {
    removed.push_back(list_.erase(first));
  }
  std::size_t elem = first;
  const std::size_t new_count = chunk_scratch_.size();
  for (std::string& piece : chunk_scratch_) {
    const std::size_t weight = piece.size();
    list_.insert(elem++, Block{std::move(piece), {}, 0}, weight);
  }
  chunk_scratch_.clear();

  return RegionChange{first, old_count, new_count, std::move(removed)};
}

void BlockStore::set_unit(std::size_t elem, Bytes unit, std::uint64_t nonce) {
  list_.update(elem, [&](Block& b) {
    b.unit = std::move(unit);
    b.nonce = nonce;
    return b.plain.size();
  });
}

std::string BlockStore::plaintext() const {
  std::string out;
  out.reserve(char_count());
  list_.for_each([&out](const Block& b, std::size_t) { out += b.plain; });
  return out;
}

std::string BlockStore::plaintext_range(std::size_t pos,
                                        std::size_t len) const {
  if (pos > char_count() || len > char_count() - pos) {
    throw Error(ErrorCode::kInvalidArgument,
                "BlockStore: read range out of bounds");
  }
  std::string out;
  if (len == 0) return out;
  out.reserve(len);
  const auto loc = list_.find(pos);
  std::size_t offset = loc.offset;
  for (std::size_t elem = loc.element_index; out.size() < len; ++elem) {
    const std::string& plain = list_.get(elem).plain;
    out.append(plain, offset, len - out.size());
    offset = 0;
  }
  return out;
}

void BlockStore::load_blocks(std::vector<Block> blocks) {
  list_.clear();
  std::size_t elem = 0;
  for (Block& b : blocks) {
    if (b.plain.empty() || b.plain.size() > block_chars_) {
      throw Error(ErrorCode::kInvalidArgument,
                  "BlockStore: loaded block size out of range");
    }
    const std::size_t weight = b.plain.size();
    list_.insert(elem++, std::move(b), weight);
  }
}

}  // namespace privedit::enc
