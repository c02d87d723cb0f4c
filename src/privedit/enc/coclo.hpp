#pragma once
// CoClo baseline [D'Angelo, Vitali, Zacchiroli 2010] — the prior-work
// comparison point from the paper's introduction: a client-side privacy
// tool that "requires reencrypting and transmitting the entire document for
// every update". We model it with the same rECB unit layout, but IncE
// discards the old ciphertext body and re-encrypts everything with a fresh
// r0, producing a cdelta that replaces the whole body. This makes the
// incremental-vs-wholesale comparison apples-to-apples: the only difference
// is the update strategy.

#include <memory>

#include "privedit/crypto/aes_engine.hpp"
#include "privedit/enc/scheme.hpp"

namespace privedit::enc {

class CoCloScheme final : public IncrementalScheme {
 public:
  CoCloScheme(ContainerHeader header, const crypto::DocumentKeys& keys,
              std::unique_ptr<RandomSource> rng);

  const ContainerHeader& header() const override { return header_; }
  std::string initialize(std::string_view plaintext) override;
  void load(std::string_view ciphertext_doc) override;
  delta::Delta transform_delta(const delta::Delta& pdelta) override;
  std::string plaintext() const override;
  std::string plaintext_range(std::size_t pos,
                              std::size_t len) const override;
  std::string ciphertext_doc() const override;
  SchemeStats stats() const override;

  /// CoClo has no fragmentation to remove — every update already rebuilds
  /// the whole body — so compaction is a no-op.
  delta::Delta compact() override { return delta::Delta{}; }

 private:
  /// Encrypts the current plaintext into an encoded body (all units).
  std::string encode_body();

  ContainerHeader header_;
  crypto::Aes128Engine aes_;
  std::unique_ptr<RandomSource> rng_;
  std::string plaintext_;
  std::string body_;  // current encoded unit sequence (after the header)
  SchemeStats stats_;
};

}  // namespace privedit::enc
