// Randomized end-to-end integration suites.
//
// These exercise whole-stack properties rather than single modules:
//  - long mediated editing sessions keep client, extension mirror and
//    server byte-consistent, across modes/block sizes/codecs;
//  - the RPC security contract under fuzzing: a mutated ciphertext
//    document either fails to open or opens to the *exact original*
//    plaintext — never to silently wrong content;
//  - session lifecycle chains (create → edit → reopen → rotate → replicate)
//    compose correctly.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>

#include "privedit/client/gdocs_client.hpp"
#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/crypto/ctr_drbg.hpp"
#include "privedit/extension/mediator.hpp"
#include "privedit/extension/session.hpp"
#include "privedit/util/error.hpp"
#include "privedit/workload/corpus.hpp"
#include "privedit/workload/edits.hpp"

namespace privedit {
namespace {

// GoogleTest prints a parameter that has no operator<< as its raw bytes, and
// that dump becomes part of every listed test name. Implicit padding would
// leak whatever the stack held into those names, so the padding is spelled
// out as zeroed members and the names stay the same from run to run.
struct SessionCase {
  SessionCase(enc::Mode m, std::size_t b, enc::Codec c, std::uint64_t s)
      : mode(m), block_chars(b), codec(c), seed(s) {}
  enc::Mode mode;
  std::uint8_t pad0[7] = {};
  std::size_t block_chars;
  enc::Codec codec;
  std::uint8_t pad1[7] = {};
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<SessionCase>);

class MediatedSessionFuzz : public ::testing::TestWithParam<SessionCase> {};

TEST_P(MediatedSessionFuzz, LongEditSessionStaysConsistent) {
  const SessionCase c = GetParam();
  cloud::GDocsServer server;
  net::SimClock clock;
  net::LoopbackTransport transport(
      [&server](const net::HttpRequest& r) { return server.handle(r); },
      &clock, net::LatencyModel{}, crypto::CtrDrbg::from_seed(c.seed));
  extension::MediatorConfig config;
  config.password = "fuzz";
  config.scheme.mode = c.mode;
  config.scheme.block_chars = c.block_chars;
  config.scheme.codec = c.codec;
  config.scheme.kdf_iterations = 5;
  config.rng_factory = extension::seeded_rng_factory(c.seed);
  extension::GDocsMediator mediator(&transport, config, &clock);

  client::GDocsClient writer(&mediator, "doc");
  writer.create();
  Xoshiro256 rng(c.seed * 31);
  writer.insert(0, workload::random_document(rng, 300));
  writer.save();

  workload::TypingSession typing(writer.text(), &rng);
  workload::SentenceEditor sentences(writer.text(), &rng);
  std::string reference = writer.text();

  for (int step = 0; step < 60; ++step) {
    // Mix keystroke-level and sentence-level edits.
    if (rng.below(2) == 0) {
      for (int k = 0; k < 5; ++k) {
        (void)typing.keystroke();
      }
      reference = typing.document();
    } else {
      (void)sentences.step_mixed();
      reference = sentences.document();
    }
    writer.replace(0, writer.text().size(), reference);
    writer.save();
    // Re-sync the other generator to the canonical state.
    typing = workload::TypingSession(reference, &rng);
    sentences = workload::SentenceEditor(reference, &rng);

    ASSERT_EQ(*mediator.managed_plaintext("doc"), reference) << step;
  }

  // Cold open through a brand-new mediator agrees with the writer.
  extension::MediatorConfig config2 = config;
  config2.rng_factory = extension::seeded_rng_factory(c.seed + 999);
  extension::GDocsMediator mediator2(&transport, config2, &clock);
  client::GDocsClient reader(&mediator2, "doc");
  reader.open();
  EXPECT_EQ(reader.text(), reference);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MediatedSessionFuzz,
    ::testing::Values(
        SessionCase{enc::Mode::kRecb, 8, enc::Codec::kBase32, 1},
        SessionCase{enc::Mode::kRecb, 1, enc::Codec::kBase64Url, 2},
        SessionCase{enc::Mode::kRpc, 8, enc::Codec::kBase32, 3},
        SessionCase{enc::Mode::kRpc, 3, enc::Codec::kBase64Url, 4},
        SessionCase{enc::Mode::kRpc, 8, enc::Codec::kStego, 5},
        SessionCase{enc::Mode::kCoClo, 8, enc::Codec::kBase32, 6}),
    [](const ::testing::TestParamInfo<SessionCase>& info) {
      return std::string(enc::mode_name(info.param.mode)) + "_b" +
             std::to_string(info.param.block_chars) + "_c" +
             std::to_string(static_cast<int>(info.param.codec));
    });

// RPC fuzzing contract: mutate the stored ciphertext arbitrarily; opening
// must either throw or return the pristine plaintext. Silently wrong
// content would be an integrity break.
class RpcMutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RpcMutationFuzz, NeverSilentlyWrong) {
  const std::uint64_t seed = GetParam();
  const auto rng = extension::seeded_rng_factory(seed);
  enc::SchemeConfig config;
  config.mode = enc::Mode::kRpc;
  config.block_chars = 4;
  config.kdf_iterations = 5;

  Xoshiro256 fuzz(seed * 17);
  const std::string plaintext =
      workload::random_document(fuzz, 100 + fuzz.below(200));
  extension::DocumentSession writer =
      extension::DocumentSession::create_new("pw", config, rng);
  writer.encrypt_full(plaintext);
  const std::string doc = writer.scheme().ciphertext_doc();

  int detected = 0, unchanged = 0;
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = doc;
    const auto mutation = fuzz.below(4);
    if (mutation == 0) {
      // Flip one character to another Base32 character.
      const std::size_t i = fuzz.below(mutated.size());
      mutated[i] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"[fuzz.below(32)];
    } else if (mutation == 1 && mutated.size() > 10) {
      // Delete a random slice.
      const std::size_t i = fuzz.below(mutated.size() - 5);
      mutated.erase(i, 1 + fuzz.below(5));
    } else if (mutation == 2) {
      // Duplicate a random slice in place.
      const std::size_t i = fuzz.below(mutated.size());
      mutated.insert(i, mutated.substr(i, 1 + fuzz.below(8)));
    } else {
      // Swap two random characters.
      const std::size_t i = fuzz.below(mutated.size());
      const std::size_t j = fuzz.below(mutated.size());
      std::swap(mutated[i], mutated[j]);
    }

    try {
      extension::DocumentSession reader =
          extension::DocumentSession::open("pw", mutated, rng);
      ASSERT_EQ(reader.plaintext(), plaintext)
          << "mutation " << trial << " opened to wrong content";
      ++unchanged;  // mutation was a no-op (e.g. swapped equal chars)
    } catch (const Error&) {
      ++detected;
    }
  }
  // Almost all mutations must be detected; the rest must be no-ops.
  EXPECT_GT(detected, 100);
  EXPECT_EQ(detected + unchanged, 150);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpcMutationFuzz,
                         ::testing::Values(11, 22, 33, 44));

// Random bytes must never crash the container/scheme parsers — only clean
// typed errors are acceptable.
TEST(ParserRobustness, RandomInputsProduceTypedErrorsOnly) {
  const auto rng = extension::seeded_rng_factory(77);
  Xoshiro256 fuzz(78);
  for (int trial = 0; trial < 500; ++trial) {
    std::string junk;
    const std::size_t len = fuzz.below(300);
    for (std::size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(fuzz.below(256)));
    }
    try {
      extension::DocumentSession::open("pw", junk, rng);
    } catch (const Error&) {
      // expected
    }
  }
  SUCCEED();
}

TEST(Lifecycle, CreateEditReopenRotateChain) {
  const auto rng = extension::seeded_rng_factory(88);
  enc::SchemeConfig config;
  config.mode = enc::Mode::kRpc;
  config.kdf_iterations = 5;

  extension::DocumentSession s1 =
      extension::DocumentSession::create_new("pw1", config, rng);
  std::string server_doc = s1.encrypt_full("generation one");

  // Edit, reopen, edit again, rotate, reopen.
  server_doc = s1.transform_delta(delta::Delta::parse("=10\t-4\t+1"))
                   .apply(server_doc);
  extension::DocumentSession s2 =
      extension::DocumentSession::open("pw1", server_doc, rng);
  EXPECT_EQ(s2.plaintext(), "generation1");

  server_doc =
      s2.transform_delta(delta::Delta::parse("+the ")).apply(server_doc);
  extension::DocumentSession s3 = rotate_password(s2, "pw2", rng);
  server_doc = s3.scheme().ciphertext_doc();

  EXPECT_EQ(
      extension::DocumentSession::open("pw2", server_doc, rng).plaintext(),
      "the generation1");
  EXPECT_THROW(extension::DocumentSession::open("pw1", server_doc, rng),
               CryptoError);
}

}  // namespace
}  // namespace privedit
