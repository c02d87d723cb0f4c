// Focused branch coverage for the GDocsMediator beyond the end-to-end
// flows in extension_test.cpp: blocking decisions, error propagation,
// counters, and edge configurations.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "privedit/client/gdocs_client.hpp"
#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/crypto/ctr_drbg.hpp"
#include "privedit/extension/mediator.hpp"
#include "privedit/net/admission.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::extension {
namespace {

struct Stack {
  explicit Stack(MediatorConfig config = base_config()) {
    transport = std::make_unique<net::LoopbackTransport>(
        [this](const net::HttpRequest& r) { return server.handle(r); },
        &clock, net::LatencyModel{}, crypto::CtrDrbg::from_seed(600));
    mediator = std::make_unique<GDocsMediator>(transport.get(),
                                               std::move(config), &clock);
  }
  static MediatorConfig base_config() {
    MediatorConfig c;
    c.password = "pw";
    c.scheme.kdf_iterations = 5;
    c.rng_factory = seeded_rng_factory(601);
    return c;
  }
  cloud::GDocsServer server;
  net::SimClock clock;
  std::unique_ptr<net::LoopbackTransport> transport;
  std::unique_ptr<GDocsMediator> mediator;
};

TEST(MediatorBranches, NonPostAndWrongPathBlocked) {
  Stack stack;
  net::HttpRequest get;
  get.method = "GET";
  get.target = "/Doc?docID=d";
  EXPECT_EQ(stack.mediator->round_trip(get).status, 403);
  EXPECT_EQ(stack.mediator
                ->round_trip(net::HttpRequest::post_form("/Elsewhere", ""))
                .status,
            403);
  EXPECT_EQ(stack.mediator->counters().requests_blocked, 2u);
  EXPECT_EQ(stack.server.counters().bad_requests, 0u);  // never forwarded
}

TEST(MediatorBranches, MissingDocIdBlocked) {
  Stack stack;
  EXPECT_EQ(
      stack.mediator->round_trip(net::HttpRequest::post_form("/Doc", "cmd=open"))
          .status,
      403);
}

TEST(MediatorBranches, SaveWithoutSessionBlocked) {
  Stack stack;
  // Forge a save for a document that never went through create/open.
  FormData form;
  form.add("session", "1");
  form.add("rev", "0");
  form.add("docContents", "leak me");
  const auto resp = stack.mediator->round_trip(
      net::HttpRequest::post_form("/Doc?docID=ghost", form.encode()));
  EXPECT_EQ(resp.status, 403);
  EXPECT_FALSE(stack.server.raw_content("ghost").has_value());
}

TEST(MediatorBranches, FailedCreateDoesNotCreateSession) {
  Stack stack;
  // The server 404s unknown endpoints; simulate create failure by sending
  // to a mediator whose upstream rejects everything.
  net::SimClock clock;
  net::LoopbackTransport broken(
      [](const net::HttpRequest&) {
        return net::HttpResponse::make(500, "down");
      },
      &clock, net::LatencyModel{}, crypto::CtrDrbg::from_seed(602));
  GDocsMediator mediator(&broken, Stack::base_config(), &clock);
  client::GDocsClient c(&mediator, "d");
  EXPECT_THROW(c.create(), ProtocolError);
  EXPECT_FALSE(mediator.managed_plaintext("d").has_value());
}

TEST(MediatorBranches, OpenOfTamperedDocPropagatesIntegrityError) {
  MediatorConfig config = Stack::base_config();
  config.scheme.mode = enc::Mode::kRpc;
  Stack stack(std::move(config));
  client::GDocsClient writer(stack.mediator.get(), "d");
  writer.create();
  writer.insert(0, "to be vandalised");
  writer.save();
  std::string bad = *stack.server.raw_content("d");
  bad[bad.size() - 3] = bad[bad.size() - 3] == 'A' ? 'B' : 'A';
  stack.server.set_raw_content("d", bad);

  MediatorConfig config2 = Stack::base_config();
  config2.scheme.mode = enc::Mode::kRpc;
  GDocsMediator mediator2(stack.transport.get(), std::move(config2),
                          &stack.clock);
  client::GDocsClient reader(&mediator2, "d");
  EXPECT_THROW(reader.open(), Error);
}

TEST(MediatorBranches, ManagedStatsReflectDocument) {
  Stack stack;
  client::GDocsClient c(stack.mediator.get(), "d");
  c.create();
  c.insert(0, std::string(800, 'z'));
  c.save();
  const auto stats = stack.mediator->managed_stats("d");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->plaintext_chars, 800u);
  EXPECT_EQ(stats->block_count, 100u);  // b=8
  EXPECT_FALSE(stack.mediator->managed_stats("other").has_value());
}

TEST(MediatorBranches, ReopenSameMediatorReplacesSession) {
  Stack stack;
  client::GDocsClient c(stack.mediator.get(), "d");
  c.create();
  c.insert(0, "first body");
  c.save();
  // Re-open through the same mediator (e.g. user reloads the page).
  c.open();
  EXPECT_EQ(c.text(), "first body");
  c.insert(0, "again: ");
  c.save();
  EXPECT_EQ(stack.mediator->managed_plaintext("d"), "again: first body");
}

TEST(MediatorBranches, PaddingWithoutClockStillPads) {
  MediatorConfig config = Stack::base_config();
  config.pad_bucket = 256;
  config.random_delay_us = 1000;  // must be a no-op without a clock
  cloud::GDocsServer server;
  net::SimClock clock;
  net::LoopbackTransport transport(
      [&server](const net::HttpRequest& r) { return server.handle(r); },
      &clock, net::LatencyModel{}, crypto::CtrDrbg::from_seed(603));
  GDocsMediator mediator(&transport, std::move(config), /*clock=*/nullptr);
  client::GDocsClient c(&mediator, "d");
  c.create();
  c.insert(0, "padded content");
  transport.enable_tap(true);
  c.save();
  bool checked = false;
  for (const std::string& frame : transport.tap()) {
    if (frame.rfind("POST", 0) != 0) continue;
    const net::HttpRequest req = net::HttpRequest::parse(frame);
    if (req.body.find("pad=") != std::string::npos) {
      EXPECT_EQ(req.body.size() % 256, 0u);
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(MediatorBranches, EmptyDeltaSaveRoundTrips) {
  Stack stack;
  client::GDocsClient c(stack.mediator.get(), "d");
  c.create();
  c.insert(0, "abc");
  c.save();
  // A delta that only retains (no net change) still round-trips cleanly.
  c.queue_raw_delta(delta::Delta::parse("=3"));
  EXPECT_TRUE(c.save());
  EXPECT_EQ(stack.mediator->managed_plaintext("d"), "abc");
}

TEST(MediatorBranches, RediffHandlesMultiRegionDeltas) {
  MediatorConfig config = Stack::base_config();
  config.rediff = true;
  Stack stack(std::move(config));
  client::GDocsClient c(stack.mediator.get(), "d");
  c.create();
  c.insert(0, "one two three four five six seven");
  c.save();
  c.replace(0, 3, "ONE");
  c.replace(c.text().size() - 5, 5, "SEVEN");
  c.insert(8, "2.5 ");
  c.save();
  EXPECT_EQ(stack.mediator->managed_plaintext("d"), c.text());
  // And a cold reader agrees.
  GDocsMediator mediator2(stack.transport.get(), Stack::base_config(),
                          &stack.clock);
  client::GDocsClient reader(&mediator2, "d");
  reader.open();
  EXPECT_EQ(reader.text(), c.text());
}

TEST(MediatorBranches, UnmanagedSaveCarriesClientId) {
  // Saves to a legacy plaintext document pass through unencrypted, but
  // still through the mediator's one upstream path: the server must see
  // the client id (tenant billing, admission buckets) on them too.
  cloud::GDocsServer server;
  net::SimClock clock;
  std::vector<std::string> save_clients;
  net::LoopbackTransport transport(
      [&](const net::HttpRequest& r) {
        const FormData f = FormData::parse(r.body);
        if (f.contains("docContents") || f.contains("delta")) {
          save_clients.push_back(
              r.headers.get(net::kClientIdHeader).value_or("<none>"));
        }
        return server.handle(r);
      },
      &clock, net::LatencyModel{}, crypto::CtrDrbg::from_seed(602));
  MediatorConfig config = Stack::base_config();
  config.client_id = "alice";
  GDocsMediator mediator(&transport, std::move(config), &clock);

  client::GDocsClient direct(&transport, "plain");  // no extension
  direct.create();
  direct.insert(0, "legacy text");
  direct.save();
  save_clients.clear();

  client::GDocsClient user(&mediator, "plain");
  user.open();
  user.insert(0, "still ");
  ASSERT_TRUE(user.save());
  EXPECT_EQ(server.raw_content("plain"), "still legacy text");
  ASSERT_EQ(save_clients.size(), 1u);
  EXPECT_EQ(save_clients[0], "alice");
}

TEST(MediatorBranches, ChainRejectedKeystrokeRebasesWithoutCollaborativeMode) {
  // Audit on, collaborative and offline off: a peer advancing the chain
  // first turns our keystroke into a 412 areason=chain. The retry must
  // rebase the edit over the peer's save — from the pre-edit plaintext,
  // not from an empty document.
  cloud::GDocsServer server;
  net::SimClock clock;
  net::LoopbackTransport transport(
      [&](const net::HttpRequest& r) { return server.handle(r); }, &clock,
      net::LatencyModel{}, crypto::CtrDrbg::from_seed(603));
  const auto audited = [](const char* client_id, std::uint64_t seed) {
    MediatorConfig c = Stack::base_config();
    c.client_id = client_id;
    c.audit = true;
    c.rng_factory = seeded_rng_factory(seed);
    return c;
  };
  GDocsMediator a(&transport, audited("A", 604), &clock);
  GDocsMediator b(&transport, audited("B", 605), &clock);

  client::GDocsClient writer(&a, "d");
  writer.create();
  writer.insert(0, "hello world");
  ASSERT_TRUE(writer.save());
  client::GDocsClient peer(&b, "d");
  peer.open();
  peer.insert(0, "B says: ");
  ASSERT_TRUE(peer.save());

  FormData keystroke;
  keystroke.add("session", "1");
  keystroke.add("rev", "1");
  keystroke.add("delta", "=11\t+!");
  const net::HttpResponse resp = a.round_trip(
      net::HttpRequest::post_form("/Doc?docID=d", keystroke.encode()));
  ASSERT_TRUE(resp.ok()) << resp.status << " " << resp.body;
  EXPECT_EQ(FormData::parse(resp.body).get("rev"), "3");
  EXPECT_EQ(a.counters().audit_chain_retries, 1u);
  EXPECT_EQ(a.managed_plaintext("d"), "B says: hello world!");

  // The landed link binds the container the server now holds: a cold
  // audited reader verifies the chain and reads the merged text.
  GDocsMediator reader(&transport, audited("C", 606), &clock);
  client::GDocsClient cold(&reader, "d");
  cold.open();
  EXPECT_EQ(cold.text(), "B says: hello world!");
}

// ------------------------------------------- differential full saves --

static MediatorConfig delta_saves_config() {
  MediatorConfig c = Stack::base_config();
  c.scheme.mode = enc::Mode::kRpc;
  c.delta_full_saves = true;
  return c;
}

// A real editor only POSTs docContents on the first save of a session
// (later saves are deltas), so drive the autosave-after-small-edit shape
// the sim uses: a raw full save through the mediator's round_trip.
static net::HttpResponse post_full_save(GDocsMediator& mediator,
                                        const std::string& doc_id,
                                        const std::string& text,
                                        std::uint64_t rev) {
  FormData f;
  f.add("session", "1");
  f.add("rev", std::to_string(rev));
  f.add("docContents", text);
  return mediator.round_trip(
      net::HttpRequest::post_form("/Doc?docID=" + doc_id, f.encode()));
}

TEST(MediatorBDelta, FullSaveAfterSmallEditRidesBlockDelta) {
  Stack stack(delta_saves_config());
  client::GDocsClient c(stack.mediator.get(), "d");
  c.create();
  c.insert(0, std::string(4000, 'a'));
  c.save();  // shares nothing with the empty container: plain full save
  EXPECT_EQ(stack.mediator->counters().delta_full_saves, 0u);

  // The whole document POSTed again with one character changed: the
  // mediator must send it as the cdelta anchored on its mirror.
  std::string text = c.text();
  text[100] = 'x';
  stack.transport->enable_tap(true);
  EXPECT_TRUE(post_full_save(*stack.mediator, "d", text, 1).ok());
  const auto counters = stack.mediator->counters();
  EXPECT_EQ(counters.delta_full_saves, 1u);
  EXPECT_EQ(counters.delta_full_save_fallbacks, 0u);
  EXPECT_GT(counters.delta_full_save_bytes, 0u);
  EXPECT_EQ(stack.server.counters().full_saves, 2u);
  EXPECT_EQ(stack.server.counters().delta_saves, 0u);
  // The delta wire is a small fraction of the container it replaced, and
  // the whole request carries no docContents.
  const auto mirror = stack.mediator->managed_ciphertext("d");
  ASSERT_TRUE(mirror.has_value());
  EXPECT_LT(counters.delta_full_save_bytes * 4, mirror->size());
  bool saw_save = false;
  for (const std::string& frame : stack.transport->tap()) {
    if (frame.rfind("POST", 0) != 0) continue;
    const FormData f = FormData::parse(net::HttpRequest::parse(frame).body);
    if (!f.contains("dbase")) continue;
    saw_save = true;
    EXPECT_FALSE(f.contains("docContents"));
    EXPECT_LT(f.get("delta")->size() * 4, mirror->size());
  }
  EXPECT_TRUE(saw_save);
  // Server and mirror agree byte for byte, and a cold reader decrypts it.
  EXPECT_EQ(stack.server.raw_content("d"), mirror);
  GDocsMediator mediator2(stack.transport.get(), delta_saves_config(),
                          &stack.clock);
  client::GDocsClient reader(&mediator2, "d");
  reader.open();
  EXPECT_EQ(reader.text(), text);
}

TEST(MediatorBDelta, DivergedServerGets412ThenFullSaveFallback) {
  Stack stack(delta_saves_config());
  client::GDocsClient c(stack.mediator.get(), "d");
  c.create();
  c.insert(0, std::string(4000, 'b'));
  c.save();

  // Vandalise the server copy AFTER the mediator mirrored it: the next
  // cdelta anchors on a container the server no longer holds.
  std::string bad = *stack.server.raw_content("d");
  bad[bad.size() / 2] ^= 0x01;
  stack.server.set_raw_content("d", bad);

  std::string text = c.text();
  text[100] = 'y';
  EXPECT_TRUE(post_full_save(*stack.mediator, "d", text, 1).ok());
  const auto counters = stack.mediator->counters();
  EXPECT_EQ(counters.delta_full_save_fallbacks, 1u);
  EXPECT_EQ(counters.delta_full_saves, 0u);
  EXPECT_GE(stack.server.counters().anchor_mismatches, 1u);
  // The fallback full save is always correct: the rot is overwritten and
  // both sides agree again.
  EXPECT_EQ(stack.server.raw_content("d"),
            stack.mediator->managed_ciphertext("d"));
}

}  // namespace
}  // namespace privedit::extension
