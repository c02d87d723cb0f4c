#pragma once
// HMAC-SHA256 (RFC 2104) and PBKDF2-HMAC-SHA256 (RFC 8018).
// Per-document keys are derived from the user's password (§II: "users
// control the security of their data using per-document passwords").

#include <cstdint>

#include "privedit/crypto/sha256.hpp"
#include "privedit/util/bytes.hpp"

namespace privedit::crypto {

/// HMAC-SHA256 under one key, for many messages. The constructor hashes the
/// ipad and opad blocks once and keeps the two midstates, so each MAC costs
/// the compressions of the message plus one for the outer hash. The
/// midstates are as secret as the key and are wiped on destruction.
class HmacSha256 {
 public:
  static constexpr std::size_t kMacSize = Sha256::kDigestSize;

  explicit HmacSha256(ByteView key);

  /// Test/bench hook: key on a forced SHA-256 backend (see Sha256).
  HmacSha256(ByteView key, ShaBackend forced);

  HmacSha256(const HmacSha256&) = delete;
  HmacSha256& operator=(const HmacSha256&) = delete;
  ~HmacSha256();

  Bytes mac(ByteView message) const;

  /// mac() into caller storage (`out.size() == kMacSize`) with no heap
  /// allocation; `out` may alias `message`.
  void mac_into(ByteView message, MutByteView out) const;

 private:
  Sha256 inner_;  // after absorbing key ^ ipad
  Sha256 outer_;  // after absorbing key ^ opad
};

/// One-shot HMAC-SHA256.
Bytes hmac_sha256(ByteView key, ByteView message);

/// PBKDF2-HMAC-SHA256. Throws CryptoError if iterations == 0 or dk_len == 0.
Bytes pbkdf2_hmac_sha256(ByteView password, ByteView salt,
                         std::uint32_t iterations, std::size_t dk_len);

/// As above on a forced SHA-256 backend (tests and benches).
Bytes pbkdf2_hmac_sha256(ByteView password, ByteView salt,
                         std::uint32_t iterations, std::size_t dk_len,
                         ShaBackend backend);

}  // namespace privedit::crypto
