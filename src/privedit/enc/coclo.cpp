#include "privedit/enc/coclo.hpp"

#include <cstring>

#include "privedit/enc/recb.hpp"
#include "privedit/util/error.hpp"

namespace privedit::enc {
namespace {

// CoClo re-encrypts the whole document per update, so its batch runs are
// wider than the region schemes' (stack cost: 2 KiB nonces + 8 KiB AES).
constexpr std::size_t kRunBlocks = 256;

}  // namespace

CoCloScheme::CoCloScheme(ContainerHeader header,
                         const crypto::DocumentKeys& keys,
                         std::unique_ptr<RandomSource> rng)
    : header_(std::move(header)),
      aes_(keys.content_key),
      rng_(std::move(rng)) {
  if (rng_ == nullptr) {
    throw Error(ErrorCode::kInvalidArgument, "CoCloScheme: null rng");
  }
}

std::string CoCloScheme::encode_body() {
  // Fresh r0 per (re-)encryption — CoClo has no state to preserve.
  const Bytes r0 = rng_->bytes(kNonceSize);
  std::string body = codec_encode(header_.codec, recb_header_unit(aes_, r0));
  const std::size_t b = header_.block_chars;
  const std::size_t blocks = (plaintext_.size() + b - 1) / b;
  const std::string_view plain(plaintext_);

  std::uint8_t nonces[8 * kRunBlocks];
  std::uint8_t xin[16 * kRunBlocks];
  std::uint8_t xout[16 * kRunBlocks];
  std::uint8_t unit[1 + 16];
  for (std::size_t done = 0; done < blocks;) {
    const std::size_t run = std::min(kRunBlocks, blocks - done);
    rng_->fill(MutByteView(nonces, 8 * run));
    for (std::size_t i = 0; i < run; ++i) {
      const std::string_view chars = plain.substr((done + i) * b, b);
      const std::uint8_t* ri = nonces + 8 * i;
      std::uint8_t* x = xin + 16 * i;
      std::memset(x, 0, 16);
      for (int j = 0; j < 8; ++j) {
        x[j] = static_cast<std::uint8_t>(r0[static_cast<std::size_t>(j)] ^
                                         ri[j]);
      }
      for (std::size_t j = 0; j < chars.size(); ++j) {
        x[8 + j] = static_cast<std::uint8_t>(chars[j]);
      }
      for (int j = 0; j < 8; ++j) {
        x[8 + j] = static_cast<std::uint8_t>(x[8 + j] ^ ri[j]);
      }
    }
    aes_.encrypt_blocks(ByteView(xin, 16 * run), MutByteView(xout, 16 * run),
                        run);
    for (std::size_t i = 0; i < run; ++i) {
      const std::size_t chars =
          std::min(b, plaintext_.size() - (done + i) * b);
      unit[0] = static_cast<std::uint8_t>(chars);
      std::memcpy(unit + 1, xout + 16 * i, 16);
      body += codec_encode(header_.codec, ByteView(unit, sizeof(unit)));
    }
    done += run;
  }
  secure_wipe(MutByteView(nonces, sizeof(nonces)));
  secure_wipe(MutByteView(xin, sizeof(xin)));
  stats_.blocks_reencrypted += blocks;
  return body;
}

std::string CoCloScheme::initialize(std::string_view plaintext) {
  plaintext_.assign(plaintext);
  stats_ = SchemeStats{};
  body_ = encode_body();
  std::string doc;
  doc.push_back(codec_tag(header_.codec));
  doc += codec_encode(header_.codec, header_.serialize());
  doc += body_;
  return doc;
}

void CoCloScheme::load(std::string_view ciphertext_doc) {
  ContainerReader reader(ciphertext_doc);
  if (reader.header().block_chars != header_.block_chars) {
    throw ParseError("CoClo: document header does not match scheme");
  }
  if (reader.unit_count() == 0) {
    throw ParseError("CoClo: missing header unit");
  }
  const Bytes r0 = recb_open_header_unit(aes_, reader.unit(0));
  std::string plain;
  for (std::size_t u = 1; u < reader.unit_count(); ++u) {
    plain += recb_decrypt_unit(aes_, r0, reader.unit(u), header_.block_chars);
  }
  plaintext_ = std::move(plain);
  body_ = std::string(ciphertext_doc.substr(header_.prefix_chars()));
  stats_ = SchemeStats{};
}

delta::Delta CoCloScheme::transform_delta(const delta::Delta& pdelta) {
  plaintext_ = pdelta.apply(plaintext_);
  const std::size_t old_body_chars = body_.size();
  body_ = encode_body();
  ++stats_.incremental_updates;

  delta::Delta cdelta;
  cdelta.push(delta::Op::retain(header_.prefix_chars()));
  cdelta.push(delta::Op::erase(old_body_chars));
  cdelta.push(delta::Op::insert(body_));
  return cdelta.canonicalized();
}

std::string CoCloScheme::plaintext() const { return plaintext_; }

std::string CoCloScheme::plaintext_range(std::size_t pos,
                                         std::size_t len) const {
  if (pos > plaintext_.size() || len > plaintext_.size() - pos) {
    throw Error(ErrorCode::kInvalidArgument,
                "CoClo: read range out of bounds");
  }
  return plaintext_.substr(pos, len);
}

std::string CoCloScheme::ciphertext_doc() const {
  std::string doc;
  doc.push_back(codec_tag(header_.codec));
  doc += codec_encode(header_.codec, header_.serialize());
  doc += body_;
  return doc;
}

SchemeStats CoCloScheme::stats() const {
  SchemeStats s = stats_;
  s.plaintext_chars = plaintext_.size();
  s.block_count = (plaintext_.size() + header_.block_chars - 1) /
                  header_.block_chars;
  s.ciphertext_chars = header_.prefix_chars() + body_.size();
  return s;
}

}  // namespace privedit::enc
