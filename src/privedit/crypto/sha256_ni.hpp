#pragma once
// SHA-256 compression on the x86 SHA extensions (SHA256RNDS2, SHA256MSG1,
// SHA256MSG2 via compiler intrinsics) — the hardware backend behind
// crypto::Sha256.
//
// Availability is three-layered, as for the AES-NI backend:
//   - compile time: PRIVEDIT_HAVE_SHANI is defined by CMake only when the
//     compiler accepts -msha/-msse4.1/-mssse3 (x86 targets); elsewhere this
//     header declares nothing but the probe function.
//   - run time: shani_cpu_supported() executes CPUID; Sha256 never calls
//     the kernel on hardware without the extension.
//   - self-check: Sha256 runs FIPS 180-4 known answers through the kernel
//     once per process and falls back to the portable code if they fail.
//
// Only sha256_ni.cpp is compiled with the extra ISA flags, and it includes
// no project header with inline functions, so no SHA/SSE4.1 instruction
// can leak into code the rest of the program links against. This header
// stays intrinsic-free for the same reason.

#include <cstddef>
#include <cstdint>

namespace privedit::crypto {

/// The 64 round constants of FIPS 180-4 §4.2.2, shared by both backends.
extern const std::uint32_t kSha256RoundConstants[64];

/// True when the running CPU reports the SHA extensions
/// (CPUID.7.0:EBX.SHA[bit 29]) plus the SSSE3/SSE4.1 the kernel also uses.
/// Always false when the toolchain cannot emit the instructions.
bool shani_cpu_supported();

#if PRIVEDIT_HAVE_SHANI

/// Runs the compression function over `n` adjacent 64-byte blocks, keeping
/// the state in registers across them. `state` is the eight working words
/// in FIPS 180-4 order (a..h). Precondition: shani_cpu_supported().
void sha256_ni_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                        std::size_t n);

#endif  // PRIVEDIT_HAVE_SHANI

}  // namespace privedit::crypto
