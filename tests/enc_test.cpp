// Tests for the incremental encryption schemes (§V): container framing,
// splice-log bookkeeping, block store policies, rECB/RPC round trips, the
// end-to-end server-consistency invariant, and CoClo baseline behaviour.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "privedit/crypto/ctr_drbg.hpp"
#include "privedit/enc/block_store.hpp"
#include "privedit/enc/coclo.hpp"
#include "privedit/enc/container.hpp"
#include "privedit/enc/recb.hpp"
#include "privedit/enc/rpc.hpp"
#include "privedit/enc/scheme.hpp"
#include "privedit/enc/splice_log.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/random.hpp"

namespace privedit::enc {
namespace {

crypto::DocumentKeys test_keys(std::string_view password = "hunter2") {
  const Bytes salt(16, 0x42);
  return crypto::derive_document_keys(password, salt,
                                      crypto::KdfParams{.iterations = 10});
}

ContainerHeader test_header(Mode mode, std::size_t block_chars = 8,
                            Codec codec = Codec::kBase32) {
  ContainerHeader h;
  h.mode = mode;
  h.block_chars = block_chars;
  h.codec = codec;
  h.kdf_iterations = 10;
  h.salt = Bytes(16, 0x42);
  return h;
}

std::unique_ptr<RandomSource> rng(std::uint64_t seed) {
  return crypto::CtrDrbg::from_seed(seed);
}

// ---------------------------------------------------------------- container

TEST(Container, HeaderRoundTrip) {
  const ContainerHeader h = test_header(Mode::kRpc, 5, Codec::kBase64Url);
  const ContainerHeader parsed = ContainerHeader::parse(h.serialize());
  EXPECT_EQ(parsed.mode, Mode::kRpc);
  EXPECT_EQ(parsed.block_chars, 5u);
  EXPECT_EQ(parsed.codec, Codec::kBase64Url);
  EXPECT_EQ(parsed.kdf_iterations, 10u);
  EXPECT_EQ(parsed.salt, h.salt);
}

TEST(Container, HeaderRejectsCorruption) {
  const ContainerHeader h = test_header(Mode::kRecb);
  Bytes raw = h.serialize();
  Bytes bad_magic = raw;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(ContainerHeader::parse(bad_magic), ParseError);
  Bytes bad_version = raw;
  bad_version[4] = 99;
  EXPECT_THROW(ContainerHeader::parse(bad_version), ParseError);
  Bytes bad_mode = raw;
  bad_mode[5] = 0;
  EXPECT_THROW(ContainerHeader::parse(bad_mode), ParseError);
  Bytes bad_block = raw;
  bad_block[6] = 9;
  EXPECT_THROW(ContainerHeader::parse(bad_block), ParseError);
  EXPECT_THROW(ContainerHeader::parse(ByteView(raw.data(), 27)), ParseError);
  Bytes bad_kdf = raw;
  store_u32be(MutByteView(bad_kdf.data() + 8, 4), 0xffffffffu);
  // Fuzzer finding: a tampered iteration count must not DoS the opener.
  EXPECT_THROW(ContainerHeader::parse(bad_kdf), ParseError);
}

TEST(Container, WriterReaderRoundTrip) {
  const ContainerHeader h = test_header(Mode::kRecb);
  ContainerWriter writer(h);
  Xoshiro256 r(1);
  std::vector<Bytes> units;
  for (int i = 0; i < 5; ++i) {
    units.push_back(r.bytes(h.unit_raw_size()));
    writer.add_unit(units.back());
  }
  const std::string doc = writer.str();
  EXPECT_EQ(doc.size(), h.prefix_chars() + 5 * h.unit_width());

  ContainerReader reader(doc);
  EXPECT_EQ(reader.unit_count(), 5u);
  for (std::size_t u = 0; u < 5; ++u) {
    EXPECT_EQ(reader.unit(u), units[u]);
  }
  EXPECT_THROW(reader.unit(5), Error);
}

TEST(Container, ReaderRejectsFraming) {
  EXPECT_THROW(ContainerReader(""), ParseError);
  EXPECT_THROW(ContainerReader("x"), ParseError);
  const ContainerHeader h = test_header(Mode::kRecb);
  ContainerWriter writer(h);
  writer.add_unit(Bytes(h.unit_raw_size(), 1));
  std::string doc = writer.str();
  // Chop one character: body no longer a whole number of units.
  EXPECT_THROW(ContainerReader(std::string_view(doc).substr(0, doc.size() - 1)),
               ParseError);
}

TEST(Container, UnitWidths) {
  // Fixed encoded widths are what make cdelta arithmetic possible.
  EXPECT_EQ(test_header(Mode::kRecb).unit_raw_size(), 17u);
  EXPECT_EQ(test_header(Mode::kRpc).unit_raw_size(), 32u);
  EXPECT_EQ(test_header(Mode::kRecb).unit_width(), 28u);          // base32
  EXPECT_EQ(test_header(Mode::kRpc).unit_width(), 52u);           // base32
  EXPECT_EQ(test_header(Mode::kRecb, 8, Codec::kBase64Url).unit_width(), 23u);
  EXPECT_EQ(test_header(Mode::kRpc, 8, Codec::kBase64Url).unit_width(), 43u);
}

// --------------------------------------------------------------- splice log

Bytes unit_of(std::uint8_t tag) { return Bytes(4, tag); }

TEST(SpliceLog, SingleReplace) {
  SpliceLog log;
  log.replace(3, 5, {unit_of(1), unit_of(2), unit_of(3)});
  ASSERT_EQ(log.splices().size(), 1u);
  const auto& s = log.splices()[0];
  EXPECT_EQ(s.old_start, 3u);
  EXPECT_EQ(s.old_len, 2u);
  EXPECT_EQ(s.units.size(), 3u);
}

TEST(SpliceLog, DisjointReplacesTrackShift) {
  SpliceLog log;
  log.replace(2, 3, {unit_of(1), unit_of(2)});  // old [2,3) -> 2 units (+1)
  // Current position 10 = old position 9.
  log.replace(10, 11, {unit_of(3)});
  ASSERT_EQ(log.splices().size(), 2u);
  EXPECT_EQ(log.splices()[1].old_start, 9u);
  EXPECT_EQ(log.splices()[1].old_len, 1u);
}

TEST(SpliceLog, OverlappingReplacesCoalesce) {
  SpliceLog log;
  log.replace(2, 4, {unit_of(1), unit_of(2), unit_of(3)});  // cur [2,5)
  // Overwrite the middle new unit.
  log.replace(3, 4, {unit_of(9)});
  ASSERT_EQ(log.splices().size(), 1u);
  const auto& s = log.splices()[0];
  EXPECT_EQ(s.old_start, 2u);
  EXPECT_EQ(s.old_len, 2u);
  ASSERT_EQ(s.units.size(), 3u);
  EXPECT_EQ(s.units[0], unit_of(1));
  EXPECT_EQ(s.units[1], unit_of(9));
  EXPECT_EQ(s.units[2], unit_of(3));
}

TEST(SpliceLog, AdjacentReplacesCoalesce) {
  SpliceLog log;
  log.replace(2, 3, {unit_of(1)});
  log.replace(3, 4, {unit_of(2)});  // touches the end of the first
  ASSERT_EQ(log.splices().size(), 1u);
  EXPECT_EQ(log.splices()[0].old_start, 2u);
  EXPECT_EQ(log.splices()[0].old_len, 2u);
  EXPECT_EQ(log.splices()[0].units.size(), 2u);
}

TEST(SpliceLog, ReplaceExactlyAbuttingFromTheLeft) {
  SpliceLog log;
  log.replace(5, 7, {unit_of(1), unit_of(2)});  // cur [5,7)
  // The new range ends exactly where the existing splice begins: the two
  // must coalesce, and the earlier units keep their place after the new.
  log.replace(3, 5, {unit_of(8)});
  ASSERT_EQ(log.splices().size(), 1u);
  const auto& s = log.splices()[0];
  EXPECT_EQ(s.cur_start, 3u);
  EXPECT_EQ(s.old_start, 3u);
  EXPECT_EQ(s.old_len, 4u);  // old [3,5) + old [5,7)
  ASSERT_EQ(s.units.size(), 3u);
  EXPECT_EQ(s.units[0], unit_of(8));
  EXPECT_EQ(s.units[1], unit_of(1));
  EXPECT_EQ(s.units[2], unit_of(2));
}

TEST(SpliceLog, ReplaceFullyContainingEarlierSplice) {
  SpliceLog log;
  log.replace(4, 6, {unit_of(1)});  // old [4,6) -> 1 unit, cur [4,5)
  // Rewrite a strictly larger range: the earlier splice's units are all
  // inside it and must vanish, while its old extent is still accounted.
  log.replace(2, 7, {unit_of(9), unit_of(9)});
  ASSERT_EQ(log.splices().size(), 1u);
  const auto& s = log.splices()[0];
  EXPECT_EQ(s.old_start, 2u);
  // old [2,4) + swallowed old [4,6) + cur [5,7) = old [6,8).
  EXPECT_EQ(s.old_len, 6u);
  ASSERT_EQ(s.units.size(), 2u);
  EXPECT_EQ(s.units[0], unit_of(9));
  EXPECT_EQ(s.units[1], unit_of(9));
}

TEST(SpliceLog, InsertionInsideExistingSplice) {
  SpliceLog log;
  log.replace(5, 6, {unit_of(1), unit_of(2)});  // cur [5,7)
  log.replace(6, 6, {unit_of(8)});              // pure insert between them
  ASSERT_EQ(log.splices().size(), 1u);
  const auto& s = log.splices()[0];
  EXPECT_EQ(s.old_len, 1u);
  ASSERT_EQ(s.units.size(), 3u);
  EXPECT_EQ(s.units[1], unit_of(8));
}

TEST(SpliceLog, ReplaceSpanningTwoSplicesAndGap) {
  SpliceLog log;
  log.replace(1, 2, {unit_of(1)});
  log.replace(5, 6, {unit_of(2)});
  // Covers the tail of splice 1, the untouched gap [2,5), and splice 2.
  log.replace(1, 6, {unit_of(7)});
  ASSERT_EQ(log.splices().size(), 1u);
  const auto& s = log.splices()[0];
  EXPECT_EQ(s.old_start, 1u);
  EXPECT_EQ(s.old_len, 5u);
  ASSERT_EQ(s.units.size(), 1u);
  EXPECT_EQ(s.units[0], unit_of(7));
}

TEST(SpliceLog, PureDeletion) {
  SpliceLog log;
  log.replace(4, 7, {});
  ASSERT_EQ(log.splices().size(), 1u);
  EXPECT_EQ(log.splices()[0].old_len, 3u);
  EXPECT_TRUE(log.splices()[0].units.empty());
  // A later edit at current position 4 maps to old position 7.
  log.replace(4, 5, {unit_of(1)});
  // Deletion at 4..7 is adjacent to position 4, so they coalesce.
  ASSERT_EQ(log.splices().size(), 1u);
  EXPECT_EQ(log.splices()[0].old_start, 4u);
  EXPECT_EQ(log.splices()[0].old_len, 4u);
}

TEST(SpliceLog, ToCdeltaLayout) {
  // prefix 10 chars, width 4 chars/unit, base32 encoding of 4-byte units
  // (width must match codec_width(kBase32, 4) = 7... use codec-accurate
  // numbers instead: 4 raw bytes -> 7 chars).
  SpliceLog log;
  log.replace(1, 2, {unit_of(1), unit_of(2)});
  const delta::Delta d = log.to_cdelta(10, 7, Codec::kBase32);
  // retain 10 + 1*7, delete 7, insert 14 chars.
  ASSERT_EQ(d.ops().size(), 3u);
  EXPECT_EQ(d.ops()[0], delta::Op::retain(17));
  EXPECT_EQ(d.ops()[1], delta::Op::erase(7));
  EXPECT_EQ(d.ops()[2].kind, delta::OpKind::kInsert);
  EXPECT_EQ(d.ops()[2].text.size(), 14u);
}

// Model-based fuzz: apply random unit replacements to both the SpliceLog
// and a direct string model; rendering the log as a cdelta over the "old"
// encoded string must reproduce the "new" encoded string exactly.
class SpliceLogFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpliceLogFuzz, CdeltaReproducesFinalUnitSequence) {
  Xoshiro256 r(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    // Old unit sequence: ids 0..n-1; each unit's raw bytes = 4 copies of id.
    const std::size_t n = 1 + r.below(20);
    std::vector<Bytes> old_units;
    for (std::size_t i = 0; i < n; ++i) {
      old_units.push_back(Bytes(4, static_cast<std::uint8_t>(i)));
    }
    std::vector<Bytes> cur = old_units;
    SpliceLog log;
    std::uint8_t next_id = 200;

    const int ops = 1 + static_cast<int>(r.below(8));
    for (int op = 0; op < ops; ++op) {
      const std::size_t a = r.below(cur.size() + 1);
      const std::size_t b = a + r.below(cur.size() - a + 1);
      const std::size_t k = r.below(4);
      std::vector<Bytes> repl;
      for (std::size_t i = 0; i < k; ++i) {
        repl.push_back(Bytes(4, next_id++));
      }
      // Model.
      cur.erase(cur.begin() + static_cast<std::ptrdiff_t>(a),
                cur.begin() + static_cast<std::ptrdiff_t>(b));
      cur.insert(cur.begin() + static_cast<std::ptrdiff_t>(a), repl.begin(),
                 repl.end());
      // Log.
      log.replace(a, b, std::move(repl));
    }

    // Render both unit sequences as encoded strings and check the delta.
    const std::size_t prefix = 11;
    auto render = [&](const std::vector<Bytes>& units) {
      std::string doc(prefix, 'H');
      for (const Bytes& u : units) doc += codec_encode(Codec::kBase32, u);
      return doc;
    };
    const std::string old_doc = render(old_units);
    const std::string new_doc = render(cur);
    const delta::Delta cdelta = log.to_cdelta(
        prefix, codec_width(Codec::kBase32, 4), Codec::kBase32);
    ASSERT_EQ(cdelta.apply(old_doc), new_doc)
        << "seed=" << GetParam() << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpliceLogFuzz,
                         ::testing::Values(1001, 1002, 1003, 1004, 1005,
                                           1006));

// -------------------------------------------------------------- block store

TEST(BlockStore, ResetChunksGreedy) {
  BlockStore store(4, BlockPolicy{});
  store.reset("abcdefghij");  // 4+4+2
  EXPECT_EQ(store.block_count(), 3u);
  EXPECT_EQ(store.block(0).plain, "abcd");
  EXPECT_EQ(store.block(1).plain, "efgh");
  EXPECT_EQ(store.block(2).plain, "ij");
  EXPECT_EQ(store.plaintext(), "abcdefghij");
}

TEST(BlockStore, ResetChunksEven) {
  BlockPolicy even;
  even.split = BlockPolicy::Split::kEven;
  BlockStore store(4, even);
  store.reset("abcdefghij");  // ceil(10/4)=3 blocks: 4+3+3
  EXPECT_EQ(store.block_count(), 3u);
  EXPECT_EQ(store.block(0).plain, "abcd");
  EXPECT_EQ(store.block(1).plain, "efg");
  EXPECT_EQ(store.block(2).plain, "hij");
}

TEST(BlockStore, InsertAtBoundaryGrowsPreviousBlock) {
  BlockStore store(8, BlockPolicy{});
  store.reset("abcd" "efgh");  // hmm: 8 chars -> one block
  store.reset("abcdefghij");   // blocks: "abcdefgh", "ij"
  const RegionChange c = store.replace_range(8, 0, "X");
  // Boundary insert extends the previous block: "abcdefgh"+"X" -> split
  EXPECT_EQ(c.first_elem, 0u);
  EXPECT_EQ(c.old_count, 1u);
  EXPECT_EQ(store.plaintext(), "abcdefghXij");
}

TEST(BlockStore, AppendFillsLastBlock) {
  BlockStore store(8, BlockPolicy{});
  store.reset("abc");
  for (char ch = 'd'; ch <= 'h'; ++ch) {
    store.replace_range(store.char_count(), 0, std::string(1, ch));
  }
  EXPECT_EQ(store.plaintext(), "abcdefgh");
  EXPECT_EQ(store.block_count(), 1u);  // typing kept one block filling up
}

TEST(BlockStore, DeleteAcrossBlocks) {
  BlockStore store(4, BlockPolicy{});
  store.reset("abcdefghijkl");  // abcd|efgh|ijkl
  const RegionChange c = store.replace_range(2, 8, "");
  EXPECT_EQ(store.plaintext(), "abkl");
  EXPECT_EQ(c.first_elem, 0u);
  EXPECT_EQ(c.old_count, 3u);
  ASSERT_EQ(c.removed.size(), 3u);
  EXPECT_EQ(c.removed[0].plain, "abcd");
  EXPECT_TRUE(store.validate());
}

TEST(BlockStore, DeleteEverything) {
  BlockStore store(4, BlockPolicy{});
  store.reset("abcdefgh");
  const RegionChange c = store.replace_range(0, 8, "");
  EXPECT_EQ(store.block_count(), 0u);
  EXPECT_EQ(c.new_count, 0u);
  EXPECT_EQ(store.plaintext(), "");
}

TEST(BlockStore, InsertIntoEmpty) {
  BlockStore store(4, BlockPolicy{});
  store.reset("");
  EXPECT_EQ(store.block_count(), 0u);
  store.replace_range(0, 0, "hello");
  EXPECT_EQ(store.plaintext(), "hello");
  EXPECT_EQ(store.block_count(), 2u);
}

TEST(BlockStore, MergeOnDeletePolicy) {
  BlockPolicy merging;
  merging.merge_on_delete = true;
  merging.merge_threshold = 4;
  BlockStore store(4, merging);
  store.reset("abcdefgh");  // abcd|efgh
  store.replace_range(1, 3, "");  // "a" + "efgh" region gets merged
  EXPECT_EQ(store.plaintext(), "aefgh");
  EXPECT_EQ(store.block_count(), 2u);  // re-chunked: aefg|h
  EXPECT_EQ(store.block(0).plain, "aefg");

  // Without merging the same edit leaves a 1-char fragment.
  BlockStore frag(4, BlockPolicy{});
  frag.reset("abcdefgh");
  frag.replace_range(1, 3, "");
  EXPECT_EQ(frag.plaintext(), "aefgh");
  EXPECT_EQ(frag.block(0).plain, "a");
}

TEST(BlockStore, OutOfBoundsThrows) {
  BlockStore store(4, BlockPolicy{});
  store.reset("abc");
  EXPECT_THROW(store.replace_range(4, 0, "x"), Error);
  EXPECT_THROW(store.replace_range(0, 4, ""), Error);
  EXPECT_THROW(store.replace_range(2, 2, ""), Error);
}

TEST(BlockStore, RandomEditsMatchStringModel) {
  Xoshiro256 r(314);
  BlockStore store(5, BlockPolicy{});
  std::string model = "initial document text";
  store.reset(model);
  for (int step = 0; step < 500; ++step) {
    const std::size_t pos = r.below(model.size() + 1);
    const std::size_t max_del = model.size() - pos;
    const std::size_t del = r.below(std::min<std::size_t>(max_del, 7) + 1);
    std::string ins;
    const std::size_t ins_len = r.below(7);
    for (std::size_t i = 0; i < ins_len; ++i) {
      ins.push_back(static_cast<char>('a' + r.below(26)));
    }
    if (del == 0 && ins.empty()) continue;
    store.replace_range(pos, del, ins);
    model = model.substr(0, pos) + ins + model.substr(pos + del);
    ASSERT_EQ(store.plaintext(), model) << "step " << step;
    // Block size invariant.
    for (std::size_t e = 0; e < store.block_count(); ++e) {
      ASSERT_GE(store.block(e).plain.size(), 1u);
      ASSERT_LE(store.block(e).plain.size(), 5u);
    }
  }
  EXPECT_TRUE(store.validate());
}

// -------------------------------------------------------------- rECB units

TEST(RecbUnits, EncryptDecryptRoundTrip) {
  const auto keys = test_keys();
  crypto::Aes128Engine aes(keys.content_key);
  auto r = rng(1);
  const Bytes r0 = r->bytes(8);
  for (const char* text : {"a", "ab", "abcdefgh", "\x01\x02\x03"}) {
    const Bytes unit = recb_encrypt_unit(aes, r0, text, *r);
    EXPECT_EQ(recb_decrypt_unit(aes, r0, unit, 8), text);
  }
}

TEST(RecbUnits, Randomized) {
  // Same plaintext block encrypts to different ciphertexts (fresh nonce).
  const auto keys = test_keys();
  crypto::Aes128Engine aes(keys.content_key);
  auto r = rng(2);
  const Bytes r0 = r->bytes(8);
  const Bytes u1 = recb_encrypt_unit(aes, r0, "same", *r);
  const Bytes u2 = recb_encrypt_unit(aes, r0, "same", *r);
  EXPECT_NE(u1, u2);
  EXPECT_EQ(recb_decrypt_unit(aes, r0, u1, 8), "same");
  EXPECT_EQ(recb_decrypt_unit(aes, r0, u2, 8), "same");
}

TEST(RecbUnits, HeaderUnitDetectsWrongKey) {
  const auto keys = test_keys("right");
  const auto wrong = test_keys("wrong");
  crypto::Aes128Engine aes(keys.content_key);
  crypto::Aes128Engine bad(wrong.content_key);
  auto r = rng(3);
  const Bytes r0 = r->bytes(8);
  const Bytes header = recb_header_unit(aes, r0);
  EXPECT_EQ(recb_open_header_unit(aes, header), r0);
  EXPECT_THROW(recb_open_header_unit(bad, header), CryptoError);
}

TEST(RecbUnits, RejectsOversizedBlocks) {
  const auto keys = test_keys();
  crypto::Aes128Engine aes(keys.content_key);
  auto r = rng(4);
  const Bytes r0 = r->bytes(8);
  EXPECT_THROW(recb_encrypt_unit(aes, r0, "123456789", *r), Error);
  EXPECT_THROW(recb_encrypt_unit(aes, r0, "", *r), Error);
}

// ------------------------------------------------- scheme-level properties

// GoogleTest prints a parameter that has no operator<< as its raw bytes, and
// that dump becomes part of every listed test name. Implicit padding would
// leak whatever the stack held into those names, so the padding is spelled
// out as zeroed members and the names stay the same from run to run.
struct SchemeCase {
  SchemeCase(Mode m, std::size_t b, Codec c)
      : mode(m), block_chars(b), codec(c) {}
  Mode mode;
  std::uint8_t pad0[7] = {};
  std::size_t block_chars;
  Codec codec;
  std::uint8_t pad1[7] = {};
};
static_assert(std::has_unique_object_representations_v<SchemeCase>);

class SchemeRoundTripTest : public ::testing::TestWithParam<SchemeCase> {};

std::unique_ptr<IncrementalScheme> make_test_scheme(const SchemeCase& c,
                                                    std::uint64_t seed) {
  return make_scheme(test_header(c.mode, c.block_chars, c.codec), test_keys(),
                     rng(seed));
}

TEST_P(SchemeRoundTripTest, EncThenDecIsIdentity) {
  auto scheme = make_test_scheme(GetParam(), 11);
  const std::string plain = "The quick brown fox jumps over the lazy dog.";
  const std::string doc = scheme->initialize(plain);
  EXPECT_EQ(scheme->plaintext(), plain);
  EXPECT_EQ(scheme->ciphertext_doc(), doc);

  auto fresh = make_test_scheme(GetParam(), 12);
  fresh->load(doc);
  EXPECT_EQ(fresh->plaintext(), plain);
}

TEST_P(SchemeRoundTripTest, EmptyDocument) {
  auto scheme = make_test_scheme(GetParam(), 13);
  const std::string doc = scheme->initialize("");
  EXPECT_EQ(scheme->plaintext(), "");
  auto fresh = make_test_scheme(GetParam(), 14);
  fresh->load(doc);
  EXPECT_EQ(fresh->plaintext(), "");
}

TEST_P(SchemeRoundTripTest, CiphertextHidesPlaintext) {
  auto scheme = make_test_scheme(GetParam(), 15);
  const std::string plain = "SECRETWORD SECRETWORD SECRETWORD";
  const std::string doc = scheme->initialize(plain);
  EXPECT_EQ(doc.find("SECRETWORD"), std::string::npos);
}

TEST_P(SchemeRoundTripTest, FreshRandomnessPerEncryption) {
  auto a = make_test_scheme(GetParam(), 16);
  auto b = make_test_scheme(GetParam(), 17);
  const std::string plain = "same plaintext";
  EXPECT_NE(a->initialize(plain), b->initialize(plain));
}

TEST_P(SchemeRoundTripTest, WrongPasswordRejected) {
  auto scheme = make_test_scheme(GetParam(), 18);
  const std::string doc = scheme->initialize("attack at dawn");
  const SchemeCase c = GetParam();
  auto wrong = make_scheme(test_header(c.mode, c.block_chars, c.codec),
                           test_keys("not-the-password"), rng(19));
  EXPECT_THROW(wrong->load(doc), Error);
}

// The core invariant: the server, which only ever applies cdeltas to its
// stored string, stays byte-identical to the client's ciphertext mirror,
// and a fresh client opening the server's string recovers the plaintext.
TEST_P(SchemeRoundTripTest, ServerConsistencyUnderRandomEditSession) {
  const SchemeCase c = GetParam();
  auto scheme = make_test_scheme(c, 20);
  Xoshiro256 r(21);

  std::string plain = "In the beginning the document was without form.";
  std::string server_doc = scheme->initialize(plain);

  for (int step = 0; step < 120; ++step) {
    // Build a random plaintext delta (possibly multi-op).
    delta::Delta pdelta;
    std::size_t pos = 0;
    const int regions = 1 + static_cast<int>(r.below(3));
    for (int reg = 0; reg < regions && pos <= plain.size(); ++reg) {
      const std::size_t skip = r.below(plain.size() - pos + 1);
      if (skip > 0) pdelta.push(delta::Op::retain(skip));
      pos += skip;
      const std::size_t max_del = plain.size() - pos;
      const std::size_t del = r.below(std::min<std::size_t>(max_del, 9) + 1);
      if (del > 0) {
        pdelta.push(delta::Op::erase(del));
        pos += del;
      }
      std::string ins;
      const std::size_t n = r.below(9);
      for (std::size_t i = 0; i < n; ++i) {
        ins.push_back(static_cast<char>('A' + r.below(26)));
      }
      if (!ins.empty()) pdelta.push(delta::Op::insert(ins));
    }

    const std::string expected = pdelta.apply(plain);
    if (expected == plain) continue;

    const delta::Delta cdelta = scheme->transform_delta(pdelta);
    server_doc = cdelta.apply(server_doc);
    plain = expected;

    ASSERT_EQ(scheme->plaintext(), plain) << "step " << step;
    ASSERT_EQ(server_doc, scheme->ciphertext_doc()) << "step " << step;
  }

  // A fresh client (same password) opens the server's copy.
  auto fresh = make_test_scheme(c, 22);
  fresh->load(server_doc);
  EXPECT_EQ(fresh->plaintext(), plain);
}

TEST_P(SchemeRoundTripTest, TypingSessionAppendsAreCheap) {
  const SchemeCase c = GetParam();
  if (c.mode == Mode::kCoClo) GTEST_SKIP() << "CoClo is wholesale by design";
  auto scheme = make_test_scheme(c, 23);
  std::string server_doc = scheme->initialize("");
  std::string plain;

  const std::string paragraph(400, 'q');
  for (char ch : paragraph) {
    delta::Delta pdelta;
    if (!plain.empty()) pdelta.push(delta::Op::retain(plain.size()));
    pdelta.push(delta::Op::insert(std::string(1, ch)));
    const delta::Delta cdelta = scheme->transform_delta(pdelta);
    server_doc = cdelta.apply(server_doc);
    plain.push_back(ch);
  }
  EXPECT_EQ(server_doc, scheme->ciphertext_doc());
  // Incremental work is bounded: every keystroke touches O(1) blocks, so
  // the total re-encryption count is linear with a small constant, not
  // quadratic as wholesale re-encryption would be.
  EXPECT_LT(scheme->stats().blocks_reencrypted, 3 * 400u);
  auto fresh = make_test_scheme(c, 24);
  fresh->load(server_doc);
  EXPECT_EQ(fresh->plaintext(), plain);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SchemeRoundTripTest,
    ::testing::Values(SchemeCase{Mode::kRecb, 8, Codec::kBase32},
                      SchemeCase{Mode::kRecb, 1, Codec::kBase32},
                      SchemeCase{Mode::kRecb, 3, Codec::kBase64Url},
                      SchemeCase{Mode::kRpc, 8, Codec::kBase32},
                      SchemeCase{Mode::kRpc, 1, Codec::kBase32},
                      SchemeCase{Mode::kRpc, 5, Codec::kBase64Url},
                      SchemeCase{Mode::kCoClo, 8, Codec::kBase32}),
    [](const ::testing::TestParamInfo<SchemeCase>& info) {
      std::string name = std::string(mode_name(info.param.mode)) + "_b" +
                         std::to_string(info.param.block_chars) +
                         (info.param.codec == Codec::kBase32 ? "_b32" : "_b64");
      return name;
    });

// ------------------------------------------------------ integrity (RPC §VI)

class RpcIntegrityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scheme_ = std::make_unique<RpcScheme>(test_header(Mode::kRpc, 4),
                                          test_keys(), rng(30));
    doc_ = scheme_->initialize("integrity matters: abcdefghijklmnop");
    header_ = test_header(Mode::kRpc, 4);
    width_ = header_.unit_width();
    prefix_ = header_.prefix_chars();
  }

  std::string unit_str(const std::string& doc, std::size_t u) const {
    return doc.substr(prefix_ + u * width_, width_);
  }

  std::string with_unit(const std::string& doc, std::size_t u,
                        const std::string& replacement) const {
    std::string out = doc;
    out.replace(prefix_ + u * width_, width_, replacement);
    return out;
  }

  void expect_rejected(const std::string& doc) {
    auto fresh = std::make_unique<RpcScheme>(test_header(Mode::kRpc, 4),
                                             test_keys(), rng(31));
    EXPECT_THROW(fresh->load(doc), IntegrityError);
  }

  std::unique_ptr<RpcScheme> scheme_;
  std::string doc_;
  ContainerHeader header_ = test_header(Mode::kRpc, 4);
  std::size_t width_ = 0;
  std::size_t prefix_ = 0;
};

TEST_F(RpcIntegrityTest, AcceptsUntamperedDocument) {
  auto fresh = std::make_unique<RpcScheme>(test_header(Mode::kRpc, 4),
                                           test_keys(), rng(32));
  fresh->load(doc_);
  EXPECT_EQ(fresh->plaintext(), "integrity matters: abcdefghijklmnop");
}

TEST_F(RpcIntegrityTest, DetectsBlockSwap) {
  const std::string swapped = with_unit(
      with_unit(doc_, 1, unit_str(doc_, 2)), 2, unit_str(doc_, 1));
  expect_rejected(swapped);
}

TEST_F(RpcIntegrityTest, DetectsBlockDuplication) {
  expect_rejected(with_unit(doc_, 2, unit_str(doc_, 1)));
}

TEST_F(RpcIntegrityTest, DetectsBitFlip) {
  std::string flipped = doc_;
  // Flip a character inside unit 1 (swap to a different base32 char).
  const std::size_t target = prefix_ + width_ + 3;
  flipped[target] = flipped[target] == 'A' ? 'B' : 'A';
  expect_rejected(flipped);
}

TEST_F(RpcIntegrityTest, DetectsTruncation) {
  // Remove one data unit entirely (chain no longer reaches r0 with the
  // expected aggregates).
  std::string truncated = doc_;
  truncated.erase(prefix_ + width_, width_);
  expect_rejected(truncated);
}

TEST_F(RpcIntegrityTest, DetectsCrossDocumentSubstitution) {
  // A valid unit from a different document (same key!) cannot be spliced in.
  auto other = std::make_unique<RpcScheme>(test_header(Mode::kRpc, 4),
                                           test_keys(), rng(33));
  const std::string other_doc = other->initialize("another document entirely");
  expect_rejected(with_unit(doc_, 1, unit_str(other_doc, 1)));
}

TEST_F(RpcIntegrityTest, DetectsStaleBlockReplay) {
  // Apply an edit, then replay the pre-edit unit at its old position.
  delta::Delta pdelta;
  pdelta.push(delta::Op::retain(4));
  pdelta.push(delta::Op::erase(4));
  pdelta.push(delta::Op::insert("XXXX"));
  const std::string before = doc_;
  const delta::Delta cdelta = scheme_->transform_delta(pdelta);
  const std::string after = cdelta.apply(doc_);

  // Find a unit that changed and restore its old bytes.
  bool replayed = false;
  const std::size_t units = (after.size() - prefix_) / width_;
  for (std::size_t u = 0; u < units && !replayed; ++u) {
    if (unit_str(after, u) != unit_str(before, u)) {
      expect_rejected(with_unit(after, u, unit_str(before, u)));
      replayed = true;
    }
  }
  EXPECT_TRUE(replayed);
}

TEST_F(RpcIntegrityTest, LengthAmendmentCatchesWholeChainForgery) {
  // Without the amendment, an attacker who strips data blocks *and* fixes
  // the chain would need the checksum to still match; the length field
  // closes the remaining degrees of freedom. Here we verify the negative
  // control: an unamended scheme accepts a document whose FINAL pad was
  // randomised, while the amended scheme insists on the exact length.
  auto unamended = std::make_unique<RpcScheme>(
      test_header(Mode::kRpc, 4), test_keys(), rng(34), BlockPolicy{},
      /*length_amendment=*/false);
  const std::string doc = unamended->initialize("forgeable content");
  auto reader_unamended = std::make_unique<RpcScheme>(
      test_header(Mode::kRpc, 4), test_keys(), rng(35), BlockPolicy{},
      /*length_amendment=*/false);
  reader_unamended->load(doc);  // accepted: pad is ignored
  EXPECT_EQ(reader_unamended->plaintext(), "forgeable content");

  auto amended_reader = std::make_unique<RpcScheme>(
      test_header(Mode::kRpc, 4), test_keys(), rng(36));
  // The unamended writer put random bytes where the amended reader expects
  // the document length — rejected with overwhelming probability.
  EXPECT_THROW(amended_reader->load(doc), IntegrityError);
}

// rECB, by design, does NOT detect substitution of validly-encrypted blocks
// from the same document (§VI-A: "Our privacy-only encryption scheme cannot
// withstand these attacks") — negative test documenting the limitation.
TEST(RecbIntegrityLimitation, AcceptsBlockSubstitution) {
  auto scheme = std::make_unique<RecbScheme>(test_header(Mode::kRecb, 4),
                                             test_keys(), rng(40));
  const std::string doc = scheme->initialize("abcdefghijklmnop");
  const ContainerHeader h = test_header(Mode::kRecb, 4);
  const std::size_t w = h.unit_width();
  const std::size_t p = h.prefix_chars();

  // Duplicate data unit 1 over data unit 2 (units 2 and 3 of the doc).
  std::string tampered = doc;
  tampered.replace(p + 3 * w, w, doc.substr(p + 2 * w, w));

  auto fresh = std::make_unique<RecbScheme>(test_header(Mode::kRecb, 4),
                                            test_keys(), rng(41));
  fresh->load(tampered);  // silently accepted
  EXPECT_NE(fresh->plaintext(), "abcdefghijklmnop");  // content changed!
}

// ------------------------------------------------------------------- CoClo

TEST(CoClo, WholesaleReencryptionOnEveryUpdate) {
  auto scheme = std::make_unique<CoCloScheme>(test_header(Mode::kCoClo, 8),
                                              test_keys(), rng(50));
  std::string server_doc = scheme->initialize(std::string(100, 'x'));
  const std::size_t after_init = scheme->stats().blocks_reencrypted;
  EXPECT_EQ(after_init, 13u);  // ceil(100/8)

  delta::Delta pdelta;
  pdelta.push(delta::Op::retain(50));
  pdelta.push(delta::Op::insert("y"));
  const delta::Delta cdelta = scheme->transform_delta(pdelta);
  server_doc = cdelta.apply(server_doc);

  // One keystroke re-encrypted the whole document again.
  EXPECT_GE(scheme->stats().blocks_reencrypted, after_init + 13u);
  EXPECT_EQ(server_doc, scheme->ciphertext_doc());

  auto fresh = std::make_unique<CoCloScheme>(test_header(Mode::kCoClo, 8),
                                             test_keys(), rng(51));
  fresh->load(server_doc);
  EXPECT_EQ(fresh->plaintext(),
            std::string(50, 'x') + "y" + std::string(50, 'x'));
}

TEST(CoClo, CdeltaIsWholeBody) {
  auto scheme = std::make_unique<CoCloScheme>(test_header(Mode::kCoClo, 8),
                                              test_keys(), rng(52));
  scheme->initialize(std::string(1000, 'x'));
  delta::Delta pdelta;
  pdelta.push(delta::Op::insert("1"));
  const delta::Delta cdelta = scheme->transform_delta(pdelta);
  // The insert carries the entire new body (~ciphertext of 1001 chars).
  std::size_t inserted = 0;
  for (const auto& op : cdelta.ops()) {
    if (op.kind == delta::OpKind::kInsert) inserted += op.count;
  }
  EXPECT_GT(inserted, 1000u);
}

// --------------------------------------------------------------- compaction

TEST(Compaction, RestoresIdealBlowupAndServerStaysConsistent) {
  auto scheme = std::make_unique<RecbScheme>(test_header(Mode::kRecb, 8),
                                             test_keys(), rng(70));
  Xoshiro256 r(71);
  std::string plain(4000, 'p');
  std::string server_doc = scheme->initialize(plain);

  // Fragment the document with scattered small deletions.
  for (int i = 0; i < 120; ++i) {
    const std::size_t pos = r.below(plain.size() - 3);
    delta::Delta d;
    if (pos > 0) d.push(delta::Op::retain(pos));
    d.push(delta::Op::erase(2));
    plain = d.apply(plain);
    server_doc = scheme->transform_delta(d).apply(server_doc);
  }
  const double fragmented_fill = scheme->stats().average_fill(8);
  EXPECT_LT(fragmented_fill, 0.99);

  const delta::Delta cdelta = scheme->compact();
  server_doc = cdelta.apply(server_doc);

  EXPECT_EQ(server_doc, scheme->ciphertext_doc());
  EXPECT_EQ(scheme->plaintext(), plain);
  EXPECT_GT(scheme->stats().average_fill(8), fragmented_fill);
  // All blocks full except possibly the last.
  EXPECT_EQ(scheme->stats().block_count, (plain.size() + 7) / 8);

  auto fresh = std::make_unique<RecbScheme>(test_header(Mode::kRecb, 8),
                                            test_keys(), rng(72));
  fresh->load(server_doc);
  EXPECT_EQ(fresh->plaintext(), plain);
}

TEST(Compaction, WorksForRpcAndKeepsIntegrity) {
  auto scheme = std::make_unique<RpcScheme>(test_header(Mode::kRpc, 4),
                                            test_keys(), rng(73));
  std::string server_doc = scheme->initialize("compact me properly, please");
  delta::Delta edit;
  edit.push(delta::Op::retain(3));
  edit.push(delta::Op::erase(4));
  server_doc = scheme->transform_delta(edit).apply(server_doc);

  server_doc = scheme->compact().apply(server_doc);
  auto fresh = std::make_unique<RpcScheme>(test_header(Mode::kRpc, 4),
                                           test_keys(), rng(74));
  fresh->load(server_doc);  // chain + checksum verify
  EXPECT_EQ(fresh->plaintext(), "com me properly, please");
}

TEST(Compaction, CoCloIsNoOp) {
  auto scheme = std::make_unique<CoCloScheme>(test_header(Mode::kCoClo, 8),
                                              test_keys(), rng(75));
  scheme->initialize("whatever");
  EXPECT_TRUE(scheme->compact().empty());
}

// ------------------------------------------------------------------- stats

TEST(SchemeStats, BlowupMatchesLayoutArithmetic) {
  auto scheme = std::make_unique<RecbScheme>(test_header(Mode::kRecb, 8),
                                             test_keys(), rng(60));
  scheme->initialize(std::string(8000, 'a'));
  const SchemeStats s = scheme->stats();
  EXPECT_EQ(s.plaintext_chars, 8000u);
  EXPECT_EQ(s.block_count, 1000u);
  // 28 encoded chars per 8 plaintext chars -> 3.5x plus header overhead.
  EXPECT_NEAR(s.blowup(), 3.5, 0.05);
  EXPECT_NEAR(s.average_fill(8), 1.0, 1e-9);
}

TEST(SchemeStats, BlockSizeOneBlowup) {
  auto scheme = std::make_unique<RecbScheme>(test_header(Mode::kRecb, 1),
                                             test_keys(), rng(61));
  scheme->initialize(std::string(2000, 'a'));
  // 28 encoded chars per plaintext char.
  EXPECT_NEAR(scheme->stats().blowup(), 28.0, 0.1);
}

}  // namespace
}  // namespace privedit::enc
