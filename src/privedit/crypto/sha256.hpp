#pragma once
// SHA-256 (FIPS 180-4), from scratch. Used by HMAC/PBKDF2 for password-based
// key derivation, by the journal checksum and by the cloud servers' content
// hashing.
//
// Two compression backends, chosen once per process:
//
//   kShaNi    — the x86 SHA extensions (crypto/sha256_ni.hpp), used when the
//               binary was built with them, the CPU reports them, and the
//               kernel passes FIPS 180-4 known answers at dispatch time. A
//               failed check falls back to the portable code, never aborts.
//   kPortable — plain C++, the fallback on every other host.
//
// Both produce byte-identical digests (pinned by tests/crypto_test.cpp).

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "privedit/util/bytes.hpp"

namespace privedit::crypto {

enum class ShaBackend : std::uint8_t { kPortable, kShaNi };

std::string_view sha_backend_name(ShaBackend backend);

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  /// Starts a hash on the dispatched backend.
  Sha256();

  /// Test/bench hook: force a backend. Forcing kShaNi on a host without a
  /// usable SHA-NI kernel throws CryptoError.
  explicit Sha256(ShaBackend forced);

  /// The process-wide dispatch decision (CPUID + known answers, cached).
  static ShaBackend dispatch_backend();

  /// Whether `backend` can run on this host.
  static bool backend_available(ShaBackend backend);

  ShaBackend backend() const { return backend_; }

  /// Absorbs more input; may be called any number of times. Whole runs of
  /// 64-byte blocks go to the kernel in one call.
  void update(ByteView data);

  /// Finalises and returns the 32-byte digest. The object may not be
  /// updated afterwards (reset with *this = Sha256()).
  Bytes finish();

  /// finish() into caller storage (`out.size() == kDigestSize`), without a
  /// heap allocation.
  void finish_into(MutByteView out);

  /// Overwrites the chaining state and buffer (for keyed midstates).
  void wipe();

  /// One-shot convenience.
  static Bytes hash(ByteView data);

 private:
  using Compress = void (*)(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t n);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  Compress compress_;
  ShaBackend backend_;
  bool finished_ = false;
};

/// First 16 hex digits of SHA-256(content): the content fingerprint the
/// GDocs protocol carries as `contentFromServerHash`, which the mediator,
/// the clients, the journal and the store checker all compare against.
std::string content_hash16(std::string_view content);

}  // namespace privedit::crypto
