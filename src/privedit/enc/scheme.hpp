#pragma once
// IncrementalScheme — the paper's 4-tuple (K, Enc, Dec, IncE) as an object.
//
//   K    — key derivation happens outside (crypto::derive_document_keys);
//          a scheme is constructed from the derived key bundle.
//   Enc  — initialize(): encrypts a whole plaintext, (re)builds the
//          client-side state, returns the encoded ciphertext document.
//   Dec  — load() + plaintext(): restores state from a ciphertext document
//          (verifying integrity where the mode supports it).
//   IncE — transform_delta(): translates a plaintext delta into the
//          ciphertext delta (cdelta) the mediator sends to the server,
//          updating the client-side mirror as a side effect.

#include <memory>
#include <string>
#include <string_view>

#include "privedit/crypto/key_derivation.hpp"
#include "privedit/delta/delta.hpp"
#include "privedit/enc/container.hpp"
#include "privedit/enc/types.hpp"
#include "privedit/util/random.hpp"

namespace privedit::enc {

class IncrementalScheme {
 public:
  virtual ~IncrementalScheme() = default;

  virtual const ContainerHeader& header() const = 0;

  /// Enc: encrypts `plaintext` from scratch. Returns the full encoded
  /// ciphertext document and resets the incremental state to match.
  virtual std::string initialize(std::string_view plaintext) = 0;

  /// Dec (state-building half): parses and decrypts `ciphertext_doc`,
  /// loading the incremental state. Throws CryptoError on a wrong password
  /// and IntegrityError when an authenticated mode detects tampering.
  virtual void load(std::string_view ciphertext_doc) = 0;

  /// IncE: applies a plaintext delta to the client-side mirror and returns
  /// the corresponding ciphertext delta over the encoded document string.
  virtual delta::Delta transform_delta(const delta::Delta& pdelta) = 0;

  /// Current plaintext (Dec's output when called after load()).
  virtual std::string plaintext() const = 0;

  /// The `len` plaintext characters at `pos`, in O(log n + len) for the
  /// blocked modes. Throws Error(kInvalidArgument) past the end.
  virtual std::string plaintext_range(std::size_t pos,
                                      std::size_t len) const = 0;

  /// Re-serialises the full encoded ciphertext document from state.
  /// O(document); used for verification and benches, never on the wire
  /// after the first save.
  virtual std::string ciphertext_doc() const = 0;

  virtual SchemeStats stats() const = 0;

  /// Maintenance: re-chunks the whole document into full blocks (fresh
  /// nonces throughout) and returns the ciphertext delta that replaces the
  /// stored body. Fragmentation from past edits (§V-C / Fig 7's
  /// ideal-vs-actual gap) is eliminated; intended for idle moments, as the
  /// cdelta is document-sized. Default: re-initialise and replace the body.
  virtual delta::Delta compact();
};

/// Builds the scheme instance described by `header`. `rng` supplies nonces
/// and padding; pass a seeded crypto::CtrDrbg for reproducible tests.
std::unique_ptr<IncrementalScheme> make_scheme(
    const ContainerHeader& header, const crypto::DocumentKeys& keys,
    std::unique_ptr<RandomSource> rng);

/// Convenience: header with fresh random salt from `config`.
ContainerHeader make_header(const SchemeConfig& config, RandomSource& rng);

}  // namespace privedit::enc
