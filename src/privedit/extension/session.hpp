#pragma once
// DocumentSession — per-document crypto state held by the extension.
//
// Binds a password to an IncrementalScheme: creating a session mints a
// fresh salt/header and derives keys; opening one reads the salt and KDF
// parameters out of the ciphertext document itself (§IV-C: the user only
// ever supplies the password).

#include <functional>
#include <memory>
#include <string>

#include "privedit/enc/scheme.hpp"

namespace privedit::extension {

/// Factory for the scheme's nonce source; swap in a seeded DRBG for
/// reproducible tests and benches.
using RngFactory = std::function<std::unique_ptr<RandomSource>()>;

/// Default: CtrDrbg seeded from the OS entropy pool.
RngFactory os_rng_factory();

/// Deterministic factory for tests (seed is advanced per call so distinct
/// sessions do not share nonce streams).
RngFactory seeded_rng_factory(std::uint64_t seed);

class DocumentSession {
 public:
  /// New encrypted document: fresh salt, keys from `password`.
  static DocumentSession create_new(const std::string& password,
                                    const enc::SchemeConfig& config,
                                    const RngFactory& rng_factory);

  /// Existing encrypted document: header (mode, salt, KDF cost) is parsed
  /// from `ciphertext_doc`; throws CryptoError on a wrong password and
  /// IntegrityError on tampering (RPC).
  static DocumentSession open(const std::string& password,
                              std::string_view ciphertext_doc,
                              const RngFactory& rng_factory);

  /// Read-only: the members below are the only mutations, and each keeps
  /// container() in step with the scheme.
  const enc::IncrementalScheme& scheme() const { return *scheme_; }

  /// The serialised ciphertext container — byte-equal to
  /// scheme().ciphertext_doc() without its O(n) serialisation. Seeded by
  /// create_new/open, replaced by encrypt_full, patched in place by
  /// transform_delta.
  const std::string& container() const { return container_; }

  const std::string& encrypt_full(std::string_view plaintext) {
    container_ = scheme_->initialize(plaintext);
    return container_;
  }

  /// IncE; the returned cdelta is also applied to container(). A cdelta
  /// that does not apply to the scheme's own container is a logic error
  /// and throws.
  delta::Delta transform_delta(const delta::Delta& pdelta);

  /// The inverse of `pdelta` against the current plaintext, reading only
  /// the characters it deletes: O(log n + edit), never a snapshot.
  delta::Delta inverse(const delta::Delta& pdelta) const;

  std::string plaintext() const { return scheme_->plaintext(); }

 private:
  DocumentSession(std::unique_ptr<enc::IncrementalScheme> scheme,
                  std::string container)
      : scheme_(std::move(scheme)), container_(std::move(container)) {}

  std::unique_ptr<enc::IncrementalScheme> scheme_;
  std::string container_;  // one extra container per open session
};

/// Password rotation: re-encrypts the session's current plaintext under a
/// new password with a fresh salt (and fresh nonces throughout). Returns
/// the new session; its container() is the replacement the server should
/// store. The old password can no longer open the result.
DocumentSession rotate_password(const DocumentSession& current,
                                const std::string& new_password,
                                const RngFactory& rng_factory);

}  // namespace privedit::extension
