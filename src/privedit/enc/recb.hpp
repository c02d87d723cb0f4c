#pragma once
// rECB — randomized ECB incremental encryption (§V-B, confidentiality only).
//
// Ciphertext layout per the paper:
//   unit 0 (header unit):  F_sk(r0 || 0^8)
//   unit i (data block):   [count byte, clear] || F_sk(r0⊕r_i || r_i⊕d_i)
// where r0, r_i are fresh 64-bit nonces and d_i is the block's payload
// (count chars, zero-padded to 8 bytes). Each data block decrypts
// independently given r0, which is what makes IncE touch only the edited
// blocks. The clear count byte is the paper's "block character counter"
// for variable-length blocks; block boundaries are revealed to the server
// regardless (it applies the cdelta), so the counter leaks nothing new.

#include <memory>
#include <vector>

#include "privedit/crypto/aes_engine.hpp"
#include "privedit/enc/block_store.hpp"
#include "privedit/enc/scheme.hpp"
#include "privedit/enc/splice_log.hpp"

namespace privedit::enc {

/// Encrypts one rECB data unit: count byte + AES(r0⊕ri || ri⊕payload).
Bytes recb_encrypt_unit(const crypto::Aes128Engine& aes, ByteView r0,
                        std::string_view chars, RandomSource& rng);

/// Decrypts one rECB data unit; throws ParseError on malformed padding.
std::string recb_decrypt_unit(const crypto::Aes128Engine& aes, ByteView r0,
                              ByteView unit, std::size_t max_chars);

/// Builds the header unit F(r0 || 0^8) with a zero count byte.
Bytes recb_header_unit(const crypto::Aes128Engine& aes, ByteView r0);

/// Recovers r0 from the header unit; throws CryptoError if the padding
/// check fails (wrong password or corrupted document).
Bytes recb_open_header_unit(const crypto::Aes128Engine& aes, ByteView unit);

class RecbScheme final : public IncrementalScheme {
 public:
  RecbScheme(ContainerHeader header, const crypto::DocumentKeys& keys,
             std::unique_ptr<RandomSource> rng, BlockPolicy policy = {});

  const ContainerHeader& header() const override { return header_; }
  std::string initialize(std::string_view plaintext) override;
  void load(std::string_view ciphertext_doc) override;
  delta::Delta transform_delta(const delta::Delta& pdelta) override;
  std::string plaintext() const override;
  std::string plaintext_range(std::size_t pos,
                              std::size_t len) const override {
    return store_.plaintext_range(pos, len);
  }
  std::string ciphertext_doc() const override;
  SchemeStats stats() const override;

 private:
  void reencrypt_region(const RegionChange& change, SpliceLog& log);

  /// Re-encrypts store blocks [first_elem, first_elem + count) through the
  /// engine batch path — one rng fill and one pipelined AES pass per run —
  /// installs the fresh units in the store, and returns them in order.
  std::vector<Bytes> encrypt_range(std::size_t first_elem, std::size_t count);

  ContainerHeader header_;
  crypto::Aes128Engine aes_;
  std::unique_ptr<RandomSource> rng_;
  BlockStore store_;
  Bytes r0_;
  Bytes header_unit_;
  SchemeStats stats_;
};

}  // namespace privedit::enc
