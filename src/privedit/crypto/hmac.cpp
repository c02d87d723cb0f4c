#include "privedit/crypto/hmac.hpp"

#include <algorithm>
#include <array>

#include "privedit/util/error.hpp"

namespace privedit::crypto {

HmacSha256::HmacSha256(ByteView key)
    : HmacSha256(key, Sha256::dispatch_backend()) {}

HmacSha256::HmacSha256(ByteView key, ShaBackend forced)
    : inner_(forced), outer_(forced) {
  constexpr std::size_t kBlock = Sha256::kBlockSize;

  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    Sha256 hashed(forced);
    hashed.update(key);
    hashed.finish_into(MutByteView(k.data(), Sha256::kDigestSize));
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<std::uint8_t, kBlock> ipad, opad;
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  inner_.update(ipad);
  outer_.update(opad);

  secure_wipe(k);
  secure_wipe(ipad);
  secure_wipe(opad);
}

HmacSha256::~HmacSha256() {
  inner_.wipe();
  outer_.wipe();
}

void HmacSha256::mac_into(ByteView message, MutByteView out) const {
  std::array<std::uint8_t, Sha256::kDigestSize> inner_digest;
  Sha256 inner = inner_;
  inner.update(message);
  inner.finish_into(inner_digest);

  Sha256 outer = outer_;
  outer.update(inner_digest);
  outer.finish_into(out);
}

Bytes HmacSha256::mac(ByteView message) const {
  Bytes out(kMacSize);
  mac_into(message, out);
  return out;
}

Bytes hmac_sha256(ByteView key, ByteView message) {
  return HmacSha256(key).mac(message);
}

Bytes pbkdf2_hmac_sha256(ByteView password, ByteView salt,
                         std::uint32_t iterations, std::size_t dk_len) {
  return pbkdf2_hmac_sha256(password, salt, iterations, dk_len,
                            Sha256::dispatch_backend());
}

Bytes pbkdf2_hmac_sha256(ByteView password, ByteView salt,
                         std::uint32_t iterations, std::size_t dk_len,
                         ShaBackend backend) {
  if (iterations == 0) {
    throw CryptoError("pbkdf2: iterations must be > 0");
  }
  if (dk_len == 0) {
    throw CryptoError("pbkdf2: dk_len must be > 0");
  }

  const HmacSha256 prf(password, backend);
  Bytes salted(salt.begin(), salt.end());
  salted.resize(salt.size() + 4);
  std::array<std::uint8_t, HmacSha256::kMacSize> u, t;

  Bytes derived;
  derived.reserve(dk_len + HmacSha256::kMacSize);
  for (std::uint32_t block_index = 1; derived.size() < dk_len; ++block_index) {
    // U1 = PRF(salt || INT_BE(i)), Uj = PRF(Uj-1), T = U1 ^ ... ^ Uc.
    store_u32be(MutByteView(salted.data() + salt.size(), 4), block_index);
    prf.mac_into(salted, u);
    t = u;
    for (std::uint32_t iter = 1; iter < iterations; ++iter) {
      prf.mac_into(u, u);
      xor_into(t, u);
    }
    derived.insert(derived.end(), t.begin(), t.end());
  }
  secure_wipe(u);
  secure_wipe(t);
  derived.resize(dk_len);
  return derived;
}

}  // namespace privedit::crypto
