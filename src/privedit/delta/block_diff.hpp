#pragma once
// Digest-driven differential repair (DESIGN.md §15).
//
// Anti-entropy repair moves a ciphertext container from a donor replica to
// a lagging one whose copy shares most of its blocks. The lagging replica
// answers a probe with the per-block digests of its copy; the pusher runs
// block_diff_from_digests over the donor container and sends the result as
// the paper's own update language — a delta::Delta (`=n` retains a source
// block the replica already holds, `-n` skips source it no longer needs,
// `+str` carries literal bytes). The push is anchored both ends with
// delta::base_anchor (the replica's copy and the expected result), so a
// stale probe or a digest collision is refused by the receiver instead of
// producing wrong bytes.
//
// The matcher is one pass: a rolling weak sum slides over the target, and
// a hit confirmed by the digest's strong half becomes a retain of that
// whole source block. Matches are taken in source order only — a Delta
// cannot copy backwards — which real repair traffic never needs: a lagging
// replica's blocks appear in the donor in the same order.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "privedit/delta/delta.hpp"

namespace privedit::delta {

/// Smallest repair block size.
inline constexpr std::size_t kDefaultBlockSize = 64;

/// 64-bit per-block digest for the repair digest exchange: the rolling
/// rsync-style weak sum in the high half (so the matcher can slide it over
/// the target) and crc32 of the block in the low half. Collisions are
/// caught by the push's target anchor at the receiver.
std::uint64_t block_digest(std::string_view block);

/// Digests of `data`'s aligned blocks (the final block may be short).
/// Throws Error(kInvalidArgument) when block_size is 0.
std::vector<std::uint64_t> block_digests(std::string_view data,
                                         std::size_t block_size);

/// Digest-exchange block size for a document of `content_size` bytes:
/// targets ~64 blocks so the probe response stays ~1 KB, clamped to
/// [kDefaultBlockSize, 4096].
std::size_t repair_block_size(std::size_t content_size);

/// The Delta that turns a source known only by its aligned-block digests
/// (and total size) into `target`: in-order retains of whole matched source
/// blocks, deletes of the source between and after them, inserts of the
/// rest. Applied to the source it was computed against, it yields `target`
/// exactly; applied to any other string of `source_size` bytes, a string of
/// target.size() bytes. Throws Error(kInvalidArgument) when block_size is 0.
Delta block_diff_from_digests(const std::vector<std::uint64_t>& source_digests,
                              std::uint64_t source_size,
                              std::string_view target,
                              std::size_t block_size);

/// Wire form of a digest list in a probe reply: each digest as fixed-width
/// 16-char lowercase hex, concatenated.
std::string block_digests_to_wire(const std::vector<std::uint64_t>& digests);

/// Throws ParseError unless `wire` is a whole number of 16-hex digests.
std::vector<std::uint64_t> block_digests_from_wire(std::string_view wire);

}  // namespace privedit::delta
