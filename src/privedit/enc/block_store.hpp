#pragma once
// BlockStore — the client-side mirror of the blocked document.
//
// Maps plaintext edits (replace range [pos, pos+del) with `text`) onto the
// IndexedSkipList of blocks: finds the affected block range, re-chunks the
// region's characters under the block policy, and swaps the blocks out. The
// encryption schemes then re-encrypt exactly the returned region.
//
// Blocks hold the plaintext chars they cover (IncE "optionally takes the
// previous plaintext M" — we keep M blocked alongside C so IncE never has
// to decrypt), the current ciphertext unit bytes, and the RPC chaining
// nonce.

#include <cstdint>
#include <string>
#include <vector>

#include "privedit/ds/indexed_skip_list.hpp"
#include "privedit/enc/types.hpp"
#include "privedit/util/bytes.hpp"

namespace privedit::enc {

struct Block {
  std::string plain;      // 1..block_chars characters
  Bytes unit;             // current raw unit bytes (set by the scheme)
  std::uint64_t nonce = 0;  // RPC: this block's r_i; unused for rECB
};

/// Result of a region edit: blocks [first_elem, first_elem + new_count)
/// are freshly re-chunked and need (re-)encryption; old_count blocks were
/// removed at that position.
struct RegionChange {
  std::size_t first_elem = 0;
  std::size_t old_count = 0;
  std::size_t new_count = 0;
  std::vector<Block> removed;  // the replaced blocks (RPC needs their
                               // nonces/payloads to update XOR aggregates)
};

class BlockStore {
 public:
  BlockStore(std::size_t block_chars, BlockPolicy policy,
             std::uint64_t skiplist_seed = 0x51ee7ULL);

  std::size_t block_count() const { return list_.size(); }
  std::size_t char_count() const { return list_.total_weight(); }

  /// Rebuilds from plaintext (used by Enc). Blocks get empty units.
  void reset(std::string_view plaintext);

  /// Applies one edit region; throws if the range is out of bounds.
  RegionChange replace_range(std::size_t pos, std::size_t del_count,
                             std::string_view text);

  const Block& block(std::size_t elem) const { return list_.get(elem); }

  /// Sets the ciphertext unit (and optional nonce) of a block without
  /// touching its plaintext.
  void set_unit(std::size_t elem, Bytes unit, std::uint64_t nonce);

  /// Full plaintext (concatenation of all blocks).
  std::string plaintext() const;

  /// The `len` characters at `pos`: one O(log n) lookup, then a walk over
  /// the blocks the range covers. Throws if the range is out of bounds.
  std::string plaintext_range(std::size_t pos, std::size_t len) const;

  template <typename Fn>
  void for_each(Fn&& fn) const {
    list_.for_each([&fn](const Block& b, std::size_t) { fn(b); });
  }

  /// Loads blocks directly (used by Dec when opening a document).
  void load_blocks(std::vector<Block> blocks);

  bool validate() const { return list_.validate(); }

  std::size_t block_chars() const { return block_chars_; }
  const BlockPolicy& policy() const { return policy_; }

 private:
  /// Re-chunks `text` under the policy into `out` (cleared first). Chunks
  /// are at most 8 chars, so the strings stay in SSO storage; the vector
  /// itself is the caller's reusable scratch.
  void chunk(std::string_view text, std::vector<std::string>& out) const;

  std::size_t block_chars_;
  BlockPolicy policy_;
  ds::IndexedSkipList<Block> list_;

  // Reused across edits so the steady-state replace_range path performs no
  // vector/string heap traffic (the skip list recycles nodes underneath).
  std::vector<std::string> chunk_scratch_;
  std::string region_scratch_;
};

}  // namespace privedit::enc
