// Unit tests for the crypto module: AES-128 against FIPS-197 vectors (and
// OpenSSL when available), SHA-256 / HMAC / PBKDF2 against FIPS and RFC
// vectors on every SHA-256 backend the host runs plus a cross-backend
// differential test, CTR-DRBG determinism, and the wide-block Feistel
// cipher.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "privedit/crypto/aes.hpp"
#include "privedit/crypto/aes_fast.hpp"
#include "privedit/crypto/ctr_drbg.hpp"
#include "privedit/crypto/hmac.hpp"
#include "privedit/crypto/key_derivation.hpp"
#include "privedit/crypto/sha256.hpp"
#include "privedit/crypto/sha256_ni.hpp"
#include "privedit/crypto/wide_block.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/hex.hpp"
#include "privedit/util/random.hpp"

#ifdef PRIVEDIT_HAVE_OPENSSL
#include <openssl/evp.h>
#endif

namespace privedit::crypto {
namespace {

TEST(Aes128, Fips197AppendixB) {
  const Bytes key = hex_decode("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes pt = hex_decode("3243f6a8885a308d313198a2e0370734");
  const Bytes expected = hex_decode("3925841d02dc09fbdc118597196a0b32");
  Aes128 aes(key);
  EXPECT_EQ(aes.encrypt_block(pt), expected);
  EXPECT_EQ(aes.decrypt_block_copy(expected), pt);
}

TEST(Aes128, Fips197AppendixC1) {
  const Bytes key = hex_decode("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = hex_decode("00112233445566778899aabbccddeeff");
  const Bytes expected = hex_decode("69c4e0d86a7b0430d8cdb78070b4c55a");
  Aes128 aes(key);
  EXPECT_EQ(aes.encrypt_block(pt), expected);
  EXPECT_EQ(aes.decrypt_block_copy(expected), pt);
}

TEST(Aes128, NistSp800_38aEcbVectors) {
  // SP 800-38A F.1.1 (ECB-AES128.Encrypt), all four blocks.
  const Bytes key = hex_decode("2b7e151628aed2a6abf7158809cf4f3c");
  Aes128 aes(key);
  const char* pts[] = {
      "6bc1bee22e409f96e93d7e117393172a", "ae2d8a571e03ac9c9eb76fac45af8e51",
      "30c81c46a35ce411e5fbc1191a0a52ef", "f69f2445df4f9b17ad2b417be66c3710"};
  const char* cts[] = {
      "3ad77bb40d7a3660a89ecaf32466ef97", "f5d3d58503b9699de785895a96fdbaaf",
      "43b1cd7f598ece23881b00e3ed030688", "7b0c785e27e8ad3f8223207104725dd4"};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(aes.encrypt_block(hex_decode(pts[i])), hex_decode(cts[i]));
    EXPECT_EQ(aes.decrypt_block_copy(hex_decode(cts[i])), hex_decode(pts[i]));
  }
}

TEST(Aes128, RejectsBadSizes) {
  EXPECT_THROW(Aes128(Bytes(15)), CryptoError);
  Aes128 aes(Bytes(16, 0));
  Bytes out(16);
  EXPECT_THROW(aes.encrypt_block(Bytes(15), out), CryptoError);
  EXPECT_THROW(aes.decrypt_block(Bytes(17), out), CryptoError);
}

TEST(Aes128, EncryptDecryptRoundTripRandom) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) {
    const Bytes key = rng.bytes(16);
    const Bytes pt = rng.bytes(16);
    Aes128 aes(key);
    EXPECT_EQ(aes.decrypt_block_copy(aes.encrypt_block(pt)), pt);
  }
}

TEST(Aes128, InPlaceEncryption) {
  Aes128 aes(hex_decode("2b7e151628aed2a6abf7158809cf4f3c"));
  Bytes buf = hex_decode("3243f6a8885a308d313198a2e0370734");
  aes.encrypt_block(buf, buf);
  EXPECT_EQ(buf, hex_decode("3925841d02dc09fbdc118597196a0b32"));
  aes.decrypt_block(buf, buf);
  EXPECT_EQ(buf, hex_decode("3243f6a8885a308d313198a2e0370734"));
}

#ifdef PRIVEDIT_HAVE_OPENSSL
TEST(Aes128, CrossCheckAgainstOpenssl) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 200; ++i) {
    const Bytes key = rng.bytes(16);
    const Bytes pt = rng.bytes(16);
    Aes128 aes(key);
    const Bytes ours = aes.encrypt_block(pt);

    Bytes theirs(32);
    int out_len = 0;
    EVP_CIPHER_CTX* ctx = EVP_CIPHER_CTX_new();
    ASSERT_TRUE(ctx != nullptr);
    ASSERT_EQ(EVP_EncryptInit_ex(ctx, EVP_aes_128_ecb(), nullptr, key.data(),
                                 nullptr),
              1);
    EVP_CIPHER_CTX_set_padding(ctx, 0);
    ASSERT_EQ(EVP_EncryptUpdate(ctx, theirs.data(), &out_len, pt.data(),
                                static_cast<int>(pt.size())),
              1);
    EVP_CIPHER_CTX_free(ctx);
    theirs.resize(static_cast<std::size_t>(out_len));
    EXPECT_EQ(ours, theirs) << "iteration " << i;
  }
}
#endif

TEST(Aes128Fast, Fips197Vectors) {
  Aes128Fast aes(hex_decode("2b7e151628aed2a6abf7158809cf4f3c"));
  EXPECT_EQ(aes.encrypt_block(hex_decode("3243f6a8885a308d313198a2e0370734")),
            hex_decode("3925841d02dc09fbdc118597196a0b32"));
  Aes128Fast aes2(hex_decode("000102030405060708090a0b0c0d0e0f"));
  EXPECT_EQ(aes2.encrypt_block(hex_decode("00112233445566778899aabbccddeeff")),
            hex_decode("69c4e0d86a7b0430d8cdb78070b4c55a"));
  EXPECT_EQ(aes2.decrypt_block_copy(
                hex_decode("69c4e0d86a7b0430d8cdb78070b4c55a")),
            hex_decode("00112233445566778899aabbccddeeff"));
}

TEST(Aes128Fast, AgreesWithReferenceImplementation) {
  Xoshiro256 rng(1234);
  for (int i = 0; i < 500; ++i) {
    const Bytes key = rng.bytes(16);
    const Bytes pt = rng.bytes(16);
    Aes128 reference(key);
    Aes128Fast fast(key);
    const Bytes ct = reference.encrypt_block(pt);
    EXPECT_EQ(fast.encrypt_block(pt), ct) << i;
    EXPECT_EQ(fast.decrypt_block_copy(ct), pt) << i;
  }
}

TEST(Aes128Fast, RejectsBadSizes) {
  EXPECT_THROW(Aes128Fast(Bytes(8)), CryptoError);
  Aes128Fast aes(Bytes(16, 0));
  Bytes out(16);
  EXPECT_THROW(aes.encrypt_block(Bytes(15), out), CryptoError);
  EXPECT_THROW(aes.decrypt_block(Bytes(17), out), CryptoError);
}

TEST(Aes128Fast, InPlaceOperation) {
  Aes128Fast aes(Bytes(16, 0x42));
  Bytes buf(16, 0x17);
  const Bytes original = buf;
  aes.encrypt_block(buf, buf);
  EXPECT_NE(buf, original);
  aes.decrypt_block(buf, buf);
  EXPECT_EQ(buf, original);
}

// Every SHA-256 backend this host can run: the portable code always, the
// SHA-NI kernel when the CPU has it and it passed its known-answer check.
std::vector<ShaBackend> sha_backends() {
  std::vector<ShaBackend> out{ShaBackend::kPortable};
  if (Sha256::backend_available(ShaBackend::kShaNi)) {
    out.push_back(ShaBackend::kShaNi);
  }
  return out;
}

Bytes sha256_on(ShaBackend backend, ByteView data) {
  Sha256 h(backend);
  h.update(data);
  return h.finish();
}

TEST(Sha256, Fips180Vectors) {
  for (const ShaBackend backend : sha_backends()) {
    SCOPED_TRACE(sha_backend_name(backend));
    EXPECT_EQ(hex_encode(sha256_on(backend, to_bytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(hex_encode(sha256_on(backend, to_bytes(""))),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(
        hex_encode(sha256_on(
            backend,
            to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  }
  EXPECT_EQ(hex_encode(Sha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, MillionAs) {
  for (const ShaBackend backend : sha_backends()) {
    SCOPED_TRACE(sha_backend_name(backend));
    Sha256 h(backend);
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(as_bytes(chunk));
    EXPECT_EQ(hex_encode(h.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  }
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Xoshiro256 rng(5);
  const Bytes data = rng.bytes(1000);
  for (const ShaBackend backend : sha_backends()) {
    SCOPED_TRACE(sha_backend_name(backend));
    for (std::size_t split : {0u, 1u, 55u, 63u, 64u, 65u, 999u, 1000u}) {
      Sha256 h(backend);
      h.update(ByteView(data.data(), split));
      h.update(ByteView(data.data() + split, data.size() - split));
      EXPECT_EQ(h.finish(), Sha256::hash(data)) << "split=" << split;
    }
  }
}

// The kernels must agree byte for byte on every input shape: lengths around
// the padding boundaries (55/56 bytes leave room for the length or not,
// 63/64/65 straddle a block), random lengths, and random update splits that
// make the buffered path hand the kernel odd runs of whole blocks.
TEST(Sha256, BackendsAgreeOnRandomInputs) {
  Xoshiro256 rng(180);
  std::vector<std::size_t> lengths;
  for (std::size_t base : {0u, 64u, 128u, 192u, 1024u, 4096u}) {
    for (std::size_t edge : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
      lengths.push_back(base + edge);
    }
  }
  for (int i = 0; i < 200; ++i) lengths.push_back(rng.below(5001));
  lengths.push_back(0);

  for (const std::size_t len : lengths) {
    const Bytes data = rng.bytes(len);
    const Bytes expected = sha256_on(ShaBackend::kPortable, data);
    for (const ShaBackend backend : sha_backends()) {
      EXPECT_EQ(sha256_on(backend, data), expected)
          << sha_backend_name(backend) << " len=" << len;
      // Three random cuts.
      std::vector<std::size_t> cuts{rng.below(len + 1), rng.below(len + 1),
                                    rng.below(len + 1)};
      std::sort(cuts.begin(), cuts.end());
      Sha256 h(backend);
      std::size_t at = 0;
      for (const std::size_t cut : cuts) {
        h.update(ByteView(data.data() + at, cut - at));
        at = cut;
      }
      h.update(ByteView(data.data() + at, len - at));
      EXPECT_EQ(h.finish(), expected)
          << sha_backend_name(backend) << " len=" << len << " split";
    }
  }
}

TEST(Sha256, DispatchPicksAUsableBackend) {
  const ShaBackend chosen = Sha256::dispatch_backend();
  EXPECT_TRUE(Sha256::backend_available(chosen));
  EXPECT_EQ(Sha256().backend(), chosen);
  if (shani_cpu_supported()) {
    // A CPU with the extension and a kernel that passes its known answers
    // gets the hardware path; the KAT is the only thing that may veto it.
    EXPECT_EQ(chosen, ShaBackend::kShaNi);
  } else {
    EXPECT_EQ(chosen, ShaBackend::kPortable);
    EXPECT_THROW(Sha256(ShaBackend::kShaNi), CryptoError);
  }
}

TEST(Sha256, ContentHash16IsTheDigestPrefix) {
  EXPECT_EQ(content_hash16("abc"), "ba7816bf8f01cfea");
  EXPECT_EQ(content_hash16(""), "e3b0c44298fc1c14");
}

TEST(Sha256, UpdateAfterFinishThrows) {
  Sha256 h;
  h.update(to_bytes("x"));
  h.finish();
  EXPECT_THROW(h.update(to_bytes("y")), Error);
  EXPECT_THROW(h.finish(), Error);
}

// RFC 4231 test cases 1, 2 and 7.
TEST(HmacSha256, Rfc4231Vectors) {
  EXPECT_EQ(
      hex_encode(hmac_sha256(Bytes(20, 0x0b), to_bytes("Hi There"))),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(
      hex_encode(hmac_sha256(to_bytes("Jefe"),
                             to_bytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Case 7: key longer than block size.
  EXPECT_EQ(
      hex_encode(hmac_sha256(
          Bytes(131, 0xaa),
          to_bytes("This is a test using a larger than block-size key and a "
                   "larger than block-size data. The key needs to be hashed "
                   "before being used by the HMAC algorithm."))),
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// RFC 7914 §11 / well-known PBKDF2-HMAC-SHA256 vectors.
TEST(Pbkdf2, KnownVectors) {
  EXPECT_EQ(hex_encode(pbkdf2_hmac_sha256(to_bytes("passwd"), to_bytes("salt"),
                                          1, 64)),
            "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc"
            "49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783");
  EXPECT_EQ(hex_encode(pbkdf2_hmac_sha256(to_bytes("Password"), to_bytes("NaCl"),
                                          80000, 64)),
            "4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56"
            "a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d");
}

// PBKDF2-HMAC-SHA256 vectors (the RFC 6070 inputs, SHA-256 outputs), on
// every backend: c = 1, 2 and 4096, a multi-block dkLen of 40, and
// embedded NUL bytes in both password and salt.
TEST(Pbkdf2, Rfc6070StyleVectorsOnEveryBackend) {
  struct Vector {
    std::string password, salt;
    std::uint32_t c;
    std::size_t dk_len;
    const char* hex;
  };
  const std::vector<Vector> vectors = {
      {"password", "salt", 1, 32,
       "120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b"},
      {"password", "salt", 2, 32,
       "ae4d0c95af6b46d32d0adff928f06dd02a303f8ef3c251dfd6e2d85a95474c43"},
      {"password", "salt", 4096, 32,
       "c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a"},
      {"passwordPASSWORDpassword", "saltSALTsaltSALTsaltSALTsaltSALTsalt",
       4096, 40,
       "348c89dbcbd32b2f32d814b8116e84cf2b17347ebc1800181c4e2a1fb8dd53e1"
       "c635518c7dac47e9"},
      {std::string("pass\0word", 9), std::string("sa\0lt", 5), 4096, 16,
       "89b69d0516f829893c696226650a8687"},
  };
  for (const ShaBackend backend : sha_backends()) {
    for (const Vector& v : vectors) {
      EXPECT_EQ(hex_encode(pbkdf2_hmac_sha256(as_bytes(v.password),
                                              as_bytes(v.salt), v.c, v.dk_len,
                                              backend)),
                v.hex)
          << sha_backend_name(backend) << " c=" << v.c
          << " dk_len=" << v.dk_len;
    }
  }
}

// A keyed HmacSha256 reused across messages must give what the one-shot
// function gives for each, with short, block-sized and over-long keys (the
// last is hashed first), on every backend.
TEST(HmacSha256, KeyedInstanceMatchesOneShot) {
  Xoshiro256 rng(2104);
  for (const std::size_t key_len : {0u, 20u, 64u, 65u, 131u}) {
    const Bytes key = rng.bytes(key_len);
    for (const ShaBackend backend : sha_backends()) {
      const HmacSha256 prf(key, backend);
      for (const std::size_t msg_len : {0u, 32u, 55u, 64u, 200u}) {
        const Bytes msg = rng.bytes(msg_len);
        EXPECT_EQ(prf.mac(msg), hmac_sha256(key, msg))
            << sha_backend_name(backend) << " key=" << key_len
            << " msg=" << msg_len;
      }
      // mac_into may write over its own input (PBKDF2's U_j = PRF(U_j-1)).
      Bytes u = rng.bytes(32);
      const Bytes expected = hmac_sha256(key, u);
      prf.mac_into(u, u);
      EXPECT_EQ(u, expected);
    }
  }
  // RFC 4231 case 6: 131-byte key, reused for two messages.
  const HmacSha256 long_key(Bytes(131, 0xaa));
  EXPECT_EQ(hex_encode(long_key.mac(
                to_bytes("Test Using Larger Than Block-Size Key - Hash Key "
                         "First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  EXPECT_EQ(hex_encode(long_key.mac(
                to_bytes("This is a test using a larger than block-size key "
                         "and a larger than block-size data. The key needs "
                         "to be hashed before being used by the HMAC "
                         "algorithm."))),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Pbkdf2, RejectsZeroParams) {
  EXPECT_THROW(pbkdf2_hmac_sha256(to_bytes("p"), to_bytes("s"), 0, 16),
               CryptoError);
  EXPECT_THROW(pbkdf2_hmac_sha256(to_bytes("p"), to_bytes("s"), 1, 0),
               CryptoError);
}

TEST(CtrDrbg, DeterministicFromSeed) {
  auto a = CtrDrbg::from_seed(42);
  auto b = CtrDrbg::from_seed(42);
  auto c = CtrDrbg::from_seed(43);
  const Bytes ba = a->bytes(64);
  EXPECT_EQ(ba, b->bytes(64));
  EXPECT_NE(ba, c->bytes(64));
}

TEST(CtrDrbg, OutputLooksUniform) {
  auto drbg = CtrDrbg::from_seed(7);
  const Bytes data = drbg->bytes(1 << 16);
  std::map<std::uint8_t, int> counts;
  for (std::uint8_t b : data) counts[b]++;
  // Every byte value should appear; expected count 256 each.
  EXPECT_EQ(counts.size(), 256u);
  for (const auto& [value, count] : counts) {
    EXPECT_GT(count, 128) << int(value);
    EXPECT_LT(count, 512) << int(value);
  }
}

TEST(CtrDrbg, ReseedChangesStream) {
  auto a = CtrDrbg::from_seed(1);
  auto b = CtrDrbg::from_seed(1);
  b->reseed(Bytes(32, 0x55));
  EXPECT_NE(a->bytes(32), b->bytes(32));
}

TEST(CtrDrbg, BackTrackResistance) {
  // After generating, the internal state is re-keyed, so two generators
  // that diverge never re-converge.
  auto a = CtrDrbg::from_seed(9);
  auto b = CtrDrbg::from_seed(9);
  (void)a->bytes(16);
  (void)a->bytes(16);
  (void)b->bytes(32);
  EXPECT_NE(a->bytes(16), b->bytes(16));
}

TEST(CtrDrbg, RejectsBadSeedLength)
{
  EXPECT_THROW(CtrDrbg(Bytes(31)), CryptoError);
}

TEST(WideBlock, RoundTrip) {
  Xoshiro256 rng(3);
  WideBlock wb(rng.bytes(16));
  for (int i = 0; i < 100; ++i) {
    const Bytes pt = rng.bytes(32);
    const Bytes ct = wb.encrypt_block(pt);
    EXPECT_NE(ct, pt);
    EXPECT_EQ(wb.decrypt_block_copy(ct), pt);
  }
}

TEST(WideBlock, InPlace) {
  Xoshiro256 rng(4);
  WideBlock wb(rng.bytes(16));
  const Bytes pt = rng.bytes(32);
  Bytes buf = pt;
  wb.encrypt_block(buf, buf);
  EXPECT_NE(buf, pt);
  wb.decrypt_block(buf, buf);
  EXPECT_EQ(buf, pt);
}

TEST(WideBlock, KeySeparation) {
  Xoshiro256 rng(5);
  const Bytes pt = rng.bytes(32);
  WideBlock a(Bytes(16, 0x01));
  WideBlock b(Bytes(16, 0x02));
  EXPECT_NE(a.encrypt_block(pt), b.encrypt_block(pt));
}

TEST(WideBlock, AvalancheAcrossHalves) {
  // Flipping one bit anywhere in the plaintext must change both 16-byte
  // halves of the ciphertext (this is what the 4-round Feistel buys us —
  // with 2 rounds the left half would leak structure).
  WideBlock wb(Bytes(16, 0x77));
  Bytes pt(32, 0);
  const Bytes base = wb.encrypt_block(pt);
  for (std::size_t byte : {0u, 8u, 15u, 16u, 24u, 31u}) {
    Bytes mutated = pt;
    mutated[byte] ^= 0x01;
    const Bytes ct = wb.encrypt_block(mutated);
    EXPECT_FALSE(ct_equal(ByteView(ct.data(), 16), ByteView(base.data(), 16)))
        << "left half unchanged for flip at " << byte;
    EXPECT_FALSE(ct_equal(ByteView(ct.data() + 16, 16),
                          ByteView(base.data() + 16, 16)))
        << "right half unchanged for flip at " << byte;
  }
}

TEST(WideBlock, RejectsBadSizes) {
  EXPECT_THROW(WideBlock(Bytes(8)), CryptoError);
  WideBlock wb(Bytes(16, 0));
  Bytes out(32);
  EXPECT_THROW(wb.encrypt_block(Bytes(31), out), CryptoError);
  EXPECT_THROW(wb.decrypt_block(Bytes(33), out), CryptoError);
}

TEST(KeyDerivation, SubkeysAreIndependentAndStable) {
  const Bytes salt(16, 0xab);
  KdfParams params{.iterations = 100};
  const DocumentKeys k1 = derive_document_keys("password", salt, params);
  const DocumentKeys k2 = derive_document_keys("password", salt, params);
  EXPECT_EQ(k1.content_key, k2.content_key);
  EXPECT_EQ(k1.wide_key, k2.wide_key);
  EXPECT_EQ(k1.mac_key, k2.mac_key);
  EXPECT_NE(k1.content_key, k1.wide_key);
  EXPECT_EQ(k1.content_key.size(), 16u);
  EXPECT_EQ(k1.wide_key.size(), 16u);
  EXPECT_EQ(k1.mac_key.size(), 32u);
}

TEST(KeyDerivation, PasswordAndSaltSensitivity) {
  const Bytes salt1(16, 0x01);
  const Bytes salt2(16, 0x02);
  KdfParams params{.iterations = 50};
  const DocumentKeys a = derive_document_keys("pw", salt1, params);
  const DocumentKeys b = derive_document_keys("pw2", salt1, params);
  const DocumentKeys c = derive_document_keys("pw", salt2, params);
  EXPECT_NE(a.content_key, b.content_key);
  EXPECT_NE(a.content_key, c.content_key);
}

TEST(KeyDerivation, RejectsShortSalt) {
  EXPECT_THROW(derive_document_keys("pw", Bytes(4)), CryptoError);
}

}  // namespace
}  // namespace privedit::crypto
