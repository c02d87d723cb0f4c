#pragma once
// Byte-level fuzz entry points over the four parse surfaces an attacker
// (or a corrupted disk/wire) feeds directly: the delta wire language, the
// ciphertext container, the write-ahead journal file, and HTTP framing.
//
// Each entry point treats privedit's own error taxonomy as a *correct*
// rejection and returns normally; a genuine invariant violation (a parser
// that accepts garbage and then misbehaves, a round trip that is not a
// fixed point) throws FuzzCheckFailure. The standalone fuzz drivers
// (fuzz/, built under -DPRIVEDIT_FUZZ=ON) let that escape and crash the
// process so the fuzzer saves the input; the in-tree corpus regression
// test asserts EXPECT_NO_THROW over tests/corpus/ instead.

#include <stdexcept>
#include <string>
#include <string_view>

namespace privedit::sim {

/// An invariant the fuzzed component must uphold was violated. NOT part of
/// the privedit::Error taxonomy on purpose: nothing in the library throws
/// or catches it, so it always escapes to the harness.
class FuzzCheckFailure : public std::logic_error {
 public:
  explicit FuzzCheckFailure(const std::string& what)
      : std::logic_error(what) {}
};

/// Delta wire text: parse / serialise fixed point, apply on a document of
/// exactly input_span() length, invert round trip, canonical idempotence.
void fuzz_delta(std::string_view data);

/// Ciphertext container: tag/header validation, unit arithmetic, and (for
/// cheap-KDF headers) a full DocumentSession::open.
void fuzz_container(std::string_view data);

/// Journal file bytes: load (torn-tail recovery), then an append/reload
/// round trip on the recovered state. Writes a scratch file under
/// `scratch_dir` (caller-provided temp directory).
void fuzz_journal(std::string_view data, const std::string& scratch_dir);

/// HTTP request and response framing: parse / serialise round trips.
void fuzz_http(std::string_view data);

/// Differential repair (delta/block_diff.hpp): attacker bytes as a probe
/// reply's digest list must parse loudly or round trip; the bytes as a
/// (source, target) pair must round trip digests -> Delta -> wire -> parse
/// -> apply; and digests of some other copy must still yield a delta that
/// consumes exactly the declared source.
void fuzz_diff(std::string_view data);

/// Store record file bytes: written as a document file (plus a sibling
/// stale *.tmp), then opened through FileStore — the sweep must discard
/// the temp, get() must return or reject loudly, check_store must
/// classify without crashing, and a readable record must survive a
/// put/get round trip. Writes scratch files under `scratch_dir`.
void fuzz_store_record(std::string_view data, const std::string& scratch_dir);

}  // namespace privedit::sim
