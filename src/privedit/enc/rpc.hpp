#pragma once
// RPC — Random Position Chaining incremental encryption (§V-B), providing
// confidentiality *and* integrity, with the Wang–Kao–Yeh amendment (the
// document length is folded into the final checksum block).
//
// Per the paper, the ciphertext is
//   F(r0, α, r1), F(r1, d1, r2), ..., F(rn, dn, r0), F(⊕ri, ⊕di, ⊕ri)
// i.e. every data block carries its own nonce and its successor's nonce, the
// last block chains back to r0, and a final block authenticates the XOR
// aggregates. A block substitution, swap, replay or truncation breaks the
// chain or the aggregates and is detected at decryption.
//
// The tuples are wider than an AES block (two 64-bit nonces plus payload),
// so F is the 32-byte Luby–Rackoff wide-block cipher. 32-byte unit layout
// (before encryption):
//   [ 0: 8)  r_i            this block's nonce (START: r0; FINAL: r0⊕XR)
//   [ 8: 9)  flag           0x01 START, 0x00 DATA, 0x02 FINAL
//   [ 9:10)  count          payload chars (0 for START/FINAL)
//   [10:18)  payload        chars zero-padded (START: α; FINAL: ⊕payloads)
//   [18:24)  pad            fresh randomness (FINAL: document length u48be)
//   [24:32)  r_{i+1}        successor nonce (last data block: r0;
//                           FINAL: XR = ⊕ data nonces)

#include <array>
#include <memory>
#include <vector>

#include "privedit/crypto/wide_block.hpp"
#include "privedit/enc/block_store.hpp"
#include "privedit/enc/scheme.hpp"
#include "privedit/enc/splice_log.hpp"

namespace privedit::enc {

class RpcScheme final : public IncrementalScheme {
 public:
  /// The paper's amendment is on by default; the forgery-attack test and
  /// the ablation bench construct the scheme without it to reproduce the
  /// Wang et al. attack on unamended RPC.
  RpcScheme(ContainerHeader header, const crypto::DocumentKeys& keys,
            std::unique_ptr<RandomSource> rng, BlockPolicy policy = {},
            bool length_amendment = true);

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
  // Fixed-width stack tuple: seal/open run without heap traffic, which
  // matters because every region edit seals old_count + new_count + 2 of
  // these.
  struct Tuple {
    std::uint64_t nonce = 0;
    std::uint8_t flag = 0;
    std::size_t count = 0;
    std::array<std::uint8_t, 8> payload{};
    std::array<std::uint8_t, 6> pad{};
    std::uint64_t next = 0;
  };

  Bytes seal(const Tuple& t) const;
  Tuple open(ByteView unit) const;

  /// Writes the zero-padded 8-byte payload of a block's plaintext.
  static void write_payload(std::string_view chars, std::uint8_t out[8]);

  std::uint64_t fresh_nonce();
  std::uint64_t nonce_after(std::size_t elem) const;

  Bytes encrypt_data_block(std::string_view chars, std::uint64_t nonce,
                           std::uint64_t next);

  /// Batch-encrypts data tuples for store blocks
  /// [first_elem, first_elem + nonces.size()): one rng fill for the pads and
  /// one wide-block batch pass per run. Block i chains to nonces[i+1], the
  /// last one to `tail_next`. Installs units in the store, folds nonces and
  /// payloads into the XOR aggregates, and returns the units in order.
  std::vector<Bytes> encrypt_data_range(
      std::size_t first_elem, const std::vector<std::uint64_t>& nonces,
      std::uint64_t tail_next);
  Bytes encrypt_start_unit(std::uint64_t first_nonce);
  Bytes encrypt_final_unit();

  /// Re-encrypts the chaining predecessor of block `elem` (a data block or
  /// the START unit) so its successor pointer matches, and records the
  /// splice.
  void rewrite_predecessor(std::size_t elem, SpliceLog& log);

  void apply_region(const RegionChange& change, SpliceLog& log);

  ContainerHeader header_;
  crypto::WideBlock wide_;
  std::unique_ptr<RandomSource> rng_;
  BlockStore store_;
  bool length_amendment_;

  std::uint64_t r0_ = 0;
  Bytes start_unit_;
  std::uint64_t xor_nonces_ = 0;  // ⊕ r_i over data blocks
  Bytes xor_payloads_;            // ⊕ padded payloads (8 bytes)
  SchemeStats stats_;
};

}  // namespace privedit::enc
