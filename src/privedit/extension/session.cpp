#include "privedit/extension/session.hpp"

#include <atomic>

#include "privedit/crypto/ctr_drbg.hpp"
#include "privedit/util/error.hpp"

namespace privedit::extension {

RngFactory os_rng_factory() {
  return [] { return crypto::CtrDrbg::from_os_entropy(); };
}

RngFactory seeded_rng_factory(std::uint64_t seed) {
  auto counter = std::make_shared<std::atomic<std::uint64_t>>(0);
  return [seed, counter] {
    return crypto::CtrDrbg::from_seed(seed + counter->fetch_add(1) * 0x9e3779b9ULL);
  };
}

DocumentSession DocumentSession::create_new(const std::string& password,
                                            const enc::SchemeConfig& config,
                                            const RngFactory& rng_factory) {
  auto header_rng = rng_factory();
  const enc::ContainerHeader header = enc::make_header(config, *header_rng);
  const crypto::DocumentKeys keys = crypto::derive_document_keys(
      password, header.salt, crypto::KdfParams{header.kdf_iterations});
  auto scheme = enc::make_scheme(header, keys, rng_factory());
  // Start from an empty document so transform_delta is usable immediately.
  std::string container = scheme->initialize("");
  return DocumentSession(std::move(scheme), std::move(container));
}

DocumentSession rotate_password(const DocumentSession& current,
                                const std::string& new_password,
                                const RngFactory& rng_factory) {
  const enc::ContainerHeader& old_header = current.scheme().header();
  enc::SchemeConfig config;
  config.mode = old_header.mode;
  config.block_chars = old_header.block_chars;
  config.codec = old_header.codec;
  config.kdf_iterations = old_header.kdf_iterations;
  DocumentSession fresh =
      DocumentSession::create_new(new_password, config, rng_factory);
  fresh.encrypt_full(current.plaintext());
  return fresh;
}

DocumentSession DocumentSession::open(const std::string& password,
                                      std::string_view ciphertext_doc,
                                      const RngFactory& rng_factory) {
  const enc::ContainerReader reader{ciphertext_doc};
  const enc::ContainerHeader& header = reader.header();
  const crypto::DocumentKeys keys = crypto::derive_document_keys(
      password, header.salt, crypto::KdfParams{header.kdf_iterations});
  auto scheme = enc::make_scheme(header, keys, rng_factory());
  scheme->load(ciphertext_doc);
  return DocumentSession(std::move(scheme), std::string(ciphertext_doc));
}

delta::Delta DocumentSession::transform_delta(const delta::Delta& pdelta) {
  delta::Delta cdelta = scheme_->transform_delta(pdelta);
  cdelta.apply_in_place(container_);
  return cdelta;
}

delta::Delta DocumentSession::inverse(const delta::Delta& pdelta) const {
  return pdelta.invert(scheme_->stats().plaintext_chars,
                       [this](std::size_t pos, std::size_t n) {
                         return scheme_->plaintext_range(pos, n);
                       });
}

}  // namespace privedit::extension
