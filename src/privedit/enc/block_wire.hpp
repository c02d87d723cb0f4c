#pragma once
// Wire form of delta::BlockDelta and of the repair digest exchange.
//
// Block deltas ride inside form-encoded POST bodies (anti-entropy's
// `cmd=sync&bdelta=` push) and the journal's compacted records, so the
// framing is text with length-prefixed literals — self-delimiting for
// arbitrary payload bytes, cheap to percent-encode for the container
// alphabets the payloads actually carry:
//
//   PEBD1;s=<source_size>;t=<target_size>;sc=<crc32 hex8>;tc=<crc32 hex8>;
//   C<src_off>:<len>;            copy command
//   A<len>:<exactly len bytes>;  add command
//
// The digest list a lagging replica returns from a `cmd=sync` probe is the
// per-block 64-bit digests (delta::block_digest) as fixed-width 16-char
// hex, concatenated; block size and anchors ride as separate form fields.
//
// Parsing is strict and bounded: any malformed framing, oversized
// declaration, or trailing garbage throws ParseError before any O(size)
// allocation happens, so these parsers are safe on attacker bytes (fuzzed
// by sim::fuzz_diff).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "privedit/delta/block_diff.hpp"

namespace privedit::enc {

/// Cheap sniff: does `wire` start with the block-delta magic?
bool looks_like_block_delta(std::string_view wire);

std::string block_delta_to_wire(const delta::BlockDelta& delta);

/// Throws ParseError on malformed or oversized input.
delta::BlockDelta block_delta_from_wire(std::string_view wire);

/// Fixed-width 16-hex per digest, concatenated.
std::string block_digests_to_wire(const std::vector<std::uint64_t>& digests);

/// Throws ParseError unless `wire` is a whole number of 16-hex digests.
std::vector<std::uint64_t> block_digests_from_wire(std::string_view wire);

}  // namespace privedit::enc
