#include "privedit/crypto/sha256_ni.hpp"

#if defined(__i386__) || defined(__x86_64__)
#include <cpuid.h>
#endif

namespace privedit::crypto {

bool shani_cpu_supported() {
#if PRIVEDIT_HAVE_SHANI
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  // SSSE3 is CPUID.1:ECX bit 9 (PSHUFB byte swap), SSE4.1 bit 19 (PBLENDW).
  const bool sse = (ecx & (1u << 9)) != 0 && (ecx & (1u << 19)) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return sse && (ebx & (1u << 29)) != 0;
#else
  return false;
#endif
}

}  // namespace privedit::crypto

#if PRIVEDIT_HAVE_SHANI

#include <immintrin.h>  // SHA256RNDS2/MSG1/MSG2, PSHUFB, PBLENDW, PALIGNR

namespace privedit::crypto {
namespace {

// Four rounds: SHA256RNDS2 does two rounds on the low two message+K words,
// the shuffle brings the high two down for the next two.
inline void four_rounds(__m128i& abef, __m128i& cdgh, __m128i w, int quad) {
  const __m128i k = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kSha256RoundConstants + 4 * quad));
  __m128i m = _mm_add_epi32(w, k);
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, m);
  m = _mm_shuffle_epi32(m, 0x0E);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, m);
}

// Message schedule, four words at a time, from the previous sixteen
// (w0 oldest): W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]).
inline __m128i next_words(__m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                  _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

}  // namespace

void sha256_ni_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                        std::size_t n) {
  // Big-endian load: reverse the bytes of each 32-bit word.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // The instructions want the state as ABEF / CDGH (high to low lanes).
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);            // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);          // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);       // CDGH

  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto load = [&](int i) {
      return _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          bswap);
    };
    __m128i w0 = load(0), w1 = load(1), w2 = load(2), w3 = load(3);
    four_rounds(abef, cdgh, w0, 0);
    four_rounds(abef, cdgh, w1, 1);
    four_rounds(abef, cdgh, w2, 2);
    four_rounds(abef, cdgh, w3, 3);
    for (int quad = 4; quad < 16; quad += 4) {
      w0 = next_words(w0, w1, w2, w3);
      four_rounds(abef, cdgh, w0, quad);
      w1 = next_words(w1, w2, w3, w0);
      four_rounds(abef, cdgh, w1, quad + 1);
      w2 = next_words(w2, w3, w0, w1);
      four_rounds(abef, cdgh, w2, quad + 2);
      w3 = next_words(w3, w0, w1, w2);
      four_rounds(abef, cdgh, w3, quad + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);       // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);      // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);   // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);      // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

}  // namespace privedit::crypto

#endif  // PRIVEDIT_HAVE_SHANI
