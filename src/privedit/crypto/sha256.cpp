#include "privedit/crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "privedit/crypto/sha256_ni.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/hex.hpp"

namespace privedit::crypto {

alignas(16) const std::uint32_t kSha256RoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

namespace {

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                       std::size_t n) {
  for (; n > 0; --n, blocks += Sha256::kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = load_u32be(ByteView(blocks + 4 * i, 4));
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kSha256RoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if PRIVEDIT_HAVE_SHANI
// FIPS 180-4 one-block ("abc") and two-block (448-bit message) examples,
// padded by hand and run through the kernel in a single call each, so the
// check covers the multi-block path and needs no Sha256 (which would
// recurse into dispatch). A mismatch (broken microcode, miscompiled
// intrinsics) demotes to the portable code: slower, never wrong.
bool shani_passes_kat() {
  const auto digest_of = [](std::string_view msg, std::size_t blocks) {
    std::uint8_t padded[2 * Sha256::kBlockSize] = {};
    std::memcpy(padded, msg.data(), msg.size());
    padded[msg.size()] = 0x80;
    store_u64be(MutByteView(padded + 64 * blocks - 8, 8), 8 * msg.size());
    std::array<std::uint32_t, 8> state = kInitialState;
    sha256_ni_compress(state.data(), padded, blocks);
    return state;
  };
  const std::array<std::uint32_t, 8> abc = {
      0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223,
      0xb00361a3, 0x96177a9c, 0xb410ff61, 0xf20015ad};
  const std::array<std::uint32_t, 8> two_block = {
      0x248d6a61, 0xd20638b8, 0xe5c02693, 0x0c3e6039,
      0xa33ce459, 0x64ff2167, 0xf6ecedd4, 0x19db06c1};
  return digest_of("abc", 1) == abc &&
         digest_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                   2) == two_block;
}
#endif

bool shani_usable() {
#if PRIVEDIT_HAVE_SHANI
  // CPUID and the known answers cannot change within a process.
  static const bool usable = shani_cpu_supported() && shani_passes_kat();
  return usable;
#else
  return false;
#endif
}

}  // namespace

std::string_view sha_backend_name(ShaBackend backend) {
  switch (backend) {
    case ShaBackend::kPortable:
      return "sha256-portable";
    case ShaBackend::kShaNi:
      return "sha256-shani";
  }
  return "unknown";
}

ShaBackend Sha256::dispatch_backend() {
  return shani_usable() ? ShaBackend::kShaNi : ShaBackend::kPortable;
}

bool Sha256::backend_available(ShaBackend backend) {
  return backend == ShaBackend::kPortable || shani_usable();
}

Sha256::Sha256() : Sha256(dispatch_backend()) {}

Sha256::Sha256(ShaBackend forced)
    : state_(kInitialState), compress_(compress_portable), backend_(forced) {
  if (forced == ShaBackend::kPortable) return;
#if PRIVEDIT_HAVE_SHANI
  if (forced == ShaBackend::kShaNi && shani_usable()) {
    compress_ = sha256_ni_compress;
    return;
  }
#endif
  throw CryptoError("Sha256: " + std::string(sha_backend_name(forced)) +
                    " backend unavailable");
}

void Sha256::update(ByteView data) {
  if (finished_) {
    throw Error(ErrorCode::kState, "Sha256::update after finish");
  }
  total_bytes_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffered_, left);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    left -= take;
    if (buffered_ < kBlockSize) return;
    compress_(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  if (const std::size_t blocks = left / kBlockSize; blocks > 0) {
    compress_(state_.data(), p, blocks);
    p += blocks * kBlockSize;
    left -= blocks * kBlockSize;
  }
  if (left > 0) {
    std::memcpy(buffer_.data(), p, left);
    buffered_ = left;
  }
}

void Sha256::finish_into(MutByteView out) {
  if (finished_) {
    throw Error(ErrorCode::kState, "Sha256::finish called twice");
  }
  if (out.size() != kDigestSize) {
    throw CryptoError("Sha256::finish_into: output must be 32 bytes");
  }
  finished_ = true;

  // 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit length; one
  // extra block when fewer than 9 bytes are free.
  std::uint8_t tail[2 * kBlockSize] = {};
  std::memcpy(tail, buffer_.data(), buffered_);
  tail[buffered_] = 0x80;
  const std::size_t blocks = buffered_ < 56 ? 1 : 2;
  store_u64be(MutByteView(tail + kBlockSize * blocks - 8, 8), total_bytes_ * 8);
  compress_(state_.data(), tail, blocks);

  for (std::size_t i = 0; i < 8; ++i) {
    store_u32be(out.subspan(4 * i, 4), state_[i]);
  }
}

Bytes Sha256::finish() {
  Bytes digest(kDigestSize);
  finish_into(digest);
  return digest;
}

void Sha256::wipe() {
  secure_wipe(MutByteView(reinterpret_cast<std::uint8_t*>(state_.data()),
                          sizeof state_));
  secure_wipe(buffer_);
  buffered_ = 0;
}

Bytes Sha256::hash(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

std::string content_hash16(std::string_view content) {
  return hex_encode(Sha256::hash(as_bytes(content))).substr(0, 16);
}

}  // namespace privedit::crypto
