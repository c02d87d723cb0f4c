// Focused branch coverage for the GDocsMediator beyond the end-to-end
// flows in extension_test.cpp: blocking decisions, error propagation,
// counters, and edge configurations.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "privedit/client/gdocs_client.hpp"
#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/crypto/ctr_drbg.hpp"
#include "privedit/extension/mediator.hpp"
#include "privedit/net/admission.hpp"
#include "privedit/net/fault.hpp"
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


// ------------------------------------ the rebase base, built on demand --
//
// A keystroke keeps its O(edit) inverse instead of a plaintext snapshot;
// the pre-edit text is rebuilt from it only after a rejection or an
// offline flip. Each test drives a keystroke that DELETES (the inverse
// must re-insert the right characters) and pins the merged document and
// the counters the snapshot-based path produced.

MediatorConfig rebase_config(std::uint64_t seed) {
  MediatorConfig c = Stack::base_config();
  c.scheme.mode = enc::Mode::kRpc;
  c.rng_factory = seeded_rng_factory(seed);
  return c;
}

TEST(MediatorRebaseBase, Collaborative409RebasesADeletingKeystroke) {
  cloud::GDocsServer server;
  server.set_strict_revisions(true);
  net::SimClock clock;
  net::LoopbackTransport transport(
      [&](const net::HttpRequest& r) { return server.handle(r); }, &clock,
      net::LatencyModel{}, crypto::CtrDrbg::from_seed(610));
  MediatorConfig ca = rebase_config(611);
  ca.collaborative = true;
  MediatorConfig cb = rebase_config(612);
  cb.collaborative = true;
  GDocsMediator a(&transport, ca, &clock);
  GDocsMediator b(&transport, cb, &clock);

  client::GDocsClient writer(&a, "d");
  writer.create();
  writer.insert(0, "The quick brown fox jumps.");
  ASSERT_TRUE(writer.save());
  client::GDocsClient peer(&b, "d");
  peer.open();
  peer.insert(25, " over the lazy dog");
  ASSERT_TRUE(peer.save());

  writer.erase(4, 6);  // "quick ", against the stale rev
  ASSERT_TRUE(writer.save());
  const std::string merged = "The brown fox jumps over the lazy dog.";
  EXPECT_EQ(writer.text(), merged);
  EXPECT_EQ(a.managed_plaintext("d"), merged);
  EXPECT_EQ(a.counters().rebases, 1u);
  EXPECT_EQ(a.counters().deltas_transformed, 1u);
  EXPECT_EQ(a.counters().full_saves_encrypted, 1u);
  EXPECT_EQ(a.counters().acks_blanked, 1u);
  client::GDocsClient reader(&b, "d");
  reader.open();
  EXPECT_EQ(reader.text(), merged);
}

TEST(MediatorRebaseBase, AuditChain412RebasesADeletingKeystroke) {
  cloud::GDocsServer server;
  net::SimClock clock;
  net::LoopbackTransport transport(
      [&](const net::HttpRequest& r) { return server.handle(r); }, &clock,
      net::LatencyModel{}, crypto::CtrDrbg::from_seed(620));
  const auto audited = [](const char* client_id, std::uint64_t seed) {
    MediatorConfig c = rebase_config(seed);
    c.client_id = client_id;
    c.audit = true;
    return c;
  };
  GDocsMediator a(&transport, audited("A", 621), &clock);
  GDocsMediator b(&transport, audited("B", 622), &clock);

  client::GDocsClient writer(&a, "d");
  writer.create();
  writer.insert(0, "hello cruel world");
  ASSERT_TRUE(writer.save());
  client::GDocsClient peer(&b, "d");
  peer.open();
  peer.insert(0, "B says: ");
  ASSERT_TRUE(peer.save());

  FormData keystroke;
  keystroke.add("session", "1");
  keystroke.add("rev", "1");
  keystroke.add("delta", "=6\t-6");  // deletes "cruel "
  const net::HttpResponse resp = a.round_trip(
      net::HttpRequest::post_form("/Doc?docID=d", keystroke.encode()));
  ASSERT_TRUE(resp.ok()) << resp.status << " " << resp.body;
  const FormData ack = FormData::parse(resp.body);
  EXPECT_EQ(ack.get("rev"), "3");
  EXPECT_EQ(ack.get("contentFromServer"), "B says: hello world");
  EXPECT_EQ(a.managed_plaintext("d"), "B says: hello world");
  EXPECT_EQ(a.counters().audit_chain_retries, 1u);
  EXPECT_EQ(a.counters().audit_links_committed, 2u);
  EXPECT_EQ(a.counters().rebases, 0u);  // a chain retry, not a conflict
  EXPECT_EQ(a.counters().deltas_transformed, 1u);

  GDocsMediator reader(&transport, audited("C", 623), &clock);
  client::GDocsClient cold(&reader, "d");
  cold.open();
  EXPECT_EQ(cold.text(), "B says: hello world");
}

TEST(MediatorRebaseBase, TransportFailureFlipsADeletingKeystrokeOffline) {
  // The flip stores the pre-edit text as the offline queue's base; the
  // flush later rebases the queued delete over a peer's edit from it. A
  // wrong base would resurrect or duplicate text.
  cloud::GDocsServer server;
  server.set_strict_revisions(true);
  net::SimClock clock;
  net::LoopbackTransport transport(
      [&](const net::HttpRequest& r) { return server.handle(r); }, &clock,
      net::LatencyModel{0, 0, 0, 0, 0},  // the outage window is the clock
      crypto::CtrDrbg::from_seed(630));
  net::FaultyChannel faulty(&transport, net::FaultSpec{},
                            std::make_unique<Xoshiro256>(631), &clock);
  net::OutageSchedule outages;
  outages.windows.push_back({50'000, 300'000, net::OutageKind::kBlackout, 1.0});
  faulty.set_outages(outages);
  MediatorConfig ca = rebase_config(632);
  ca.offline.enabled = true;
  ca.offline.breaker.cooldown_us = 100'000;
  GDocsMediator a(&faulty, ca, &clock);
  MediatorConfig cb = rebase_config(633);
  cb.collaborative = true;
  GDocsMediator b(&transport, cb, &clock);

  client::GDocsClient writer(&a, "d");
  writer.create();
  writer.insert(0, "shared base text here.");
  ASSERT_TRUE(writer.save());
  client::GDocsClient peer(&b, "d");
  peer.open();

  clock.advance_us(60'000);
  writer.erase(7, 5);  // "base "
  ASSERT_TRUE(writer.save());
  ASSERT_TRUE(a.offline_active("d"));
  peer.insert(peer.text().size(), " bob");
  ASSERT_TRUE(peer.save());

  clock.advance_us(400'000);
  bool flushed = false;
  for (int i = 0; i < 10 && !flushed; ++i) {
    flushed = a.try_flush("d");
    clock.advance_us(100'000);
  }
  ASSERT_TRUE(flushed);
  const std::string merged = "shared text here. bob";
  EXPECT_EQ(a.managed_plaintext("d"), merged);
  const auto& mc = a.counters();
  EXPECT_EQ(mc.offline_entered, 1u);
  EXPECT_EQ(mc.offline_acks, 1u);
  EXPECT_EQ(mc.offline_flushes, 1u);
  EXPECT_EQ(mc.offline_flush_edits, 1u);
  EXPECT_EQ(mc.offline_rebases, 1u);
  EXPECT_EQ(mc.offline_dedupes, 0u);
  EXPECT_EQ(mc.deltas_transformed, 1u);
  client::GDocsClient reader(&b, "d");
  reader.open();
  EXPECT_EQ(reader.text(), merged);
}


// ------------------------------------------ the session's container cache --
//
// DocumentSession keeps the serialised container next to its scheme, and
// the mediator hashes, anchors and journals that copy instead of
// re-serialising. The oracle: after every kind of mutation the cache is
// byte-equal to a fresh serialisation, in every mode.

class SessionContainerCache : public ::testing::TestWithParam<enc::Mode> {
 protected:
  MediatorConfig config(std::uint64_t seed) const {
    MediatorConfig c = Stack::base_config();
    c.scheme.mode = GetParam();
    c.rng_factory = seeded_rng_factory(seed);
    return c;
  }

  static void expect_coherent(const GDocsMediator& m, const std::string& doc,
                              const std::string& step) {
    SCOPED_TRACE(step);
    const DocumentSession* session = m.session(doc);
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session->container(), session->scheme().ciphertext_doc());
    EXPECT_EQ(session->container(), m.managed_ciphertext(doc));
  }
};

TEST_P(SessionContainerCache, CreateOpenAndEncryptFullSaves) {
  Stack stack(config(640));
  GDocsMediator& m = *stack.mediator;
  client::GDocsClient c(&m, "d");
  c.create();
  expect_coherent(m, "d", "create");
  c.insert(0, "first words of a document");
  ASSERT_TRUE(c.save());
  expect_coherent(m, "d", "first save");
  ASSERT_TRUE(post_full_save(m, "d", "encrypt_full replaces it", 1).ok());
  expect_coherent(m, "d", "encrypt_full save");
  EXPECT_EQ(stack.server.raw_content("d"), m.session("d")->container());

  // open seeds the cache from the received bytes, verbatim.
  client::GDocsClient again(&m, "d");
  again.open();
  expect_coherent(m, "d", "reopen");
  GDocsMediator other(stack.transport.get(), config(641), &stack.clock);
  client::GDocsClient cold(&other, "d");
  cold.open();
  expect_coherent(other, "d", "cold open");
  EXPECT_EQ(other.session("d")->container(), stack.server.raw_content("d"));
}

TEST_P(SessionContainerCache, AnchoredFullSaveAndItsFallback) {
  MediatorConfig c = config(650);
  c.delta_full_saves = true;
  Stack stack(c);
  GDocsMediator& m = *stack.mediator;
  client::GDocsClient w(&m, "d");
  w.create();
  w.insert(0, std::string(600, 'a'));
  ASSERT_TRUE(w.save());

  std::string text = w.text();
  text[100] = 'x';
  ASSERT_TRUE(post_full_save(m, "d", text, 1).ok());
  expect_coherent(m, "d", "anchored cdelta save");
  EXPECT_EQ(m.counters().delta_full_saves, 1u);
  EXPECT_EQ(stack.server.raw_content("d"), m.session("d")->container());

  std::string bad = *stack.server.raw_content("d");
  bad[bad.size() / 2] ^= 0x01;
  stack.server.set_raw_content("d", bad);
  text[200] = 'y';
  ASSERT_TRUE(post_full_save(m, "d", text, 2).ok());
  EXPECT_EQ(m.counters().delta_full_save_fallbacks, 1u);
  expect_coherent(m, "d", "412 fallback");
  EXPECT_EQ(stack.server.raw_content("d"), m.session("d")->container());
}

TEST_P(SessionContainerCache, KeystrokeConflictRebaseAndChainRetry) {
  // A 409 rebase: strict server, collaborative mediators.
  {
    Stack stack(config(660));
    stack.server.set_strict_revisions(true);
    MediatorConfig ca = config(661);
    ca.collaborative = true;
    MediatorConfig cb = config(662);
    cb.collaborative = true;
    GDocsMediator a(stack.transport.get(), ca, &stack.clock);
    GDocsMediator b(stack.transport.get(), cb, &stack.clock);
    client::GDocsClient writer(&a, "d");
    writer.create();
    writer.insert(0, "one two three four");
    ASSERT_TRUE(writer.save());
    writer.erase(4, 4);
    ASSERT_TRUE(writer.save());
    expect_coherent(a, "d", "keystroke");
    client::GDocsClient peer(&b, "d");
    peer.open();
    peer.insert(0, "zero ");
    ASSERT_TRUE(peer.save());
    writer.insert(writer.text().size(), " five");
    ASSERT_TRUE(writer.save());
    EXPECT_EQ(a.counters().rebases, 1u);
    EXPECT_EQ(a.managed_plaintext("d"), "zero one three four five");
    expect_coherent(a, "d", "409 rebase");
    EXPECT_EQ(stack.server.raw_content("d"), a.session("d")->container());
  }
  // A chain-412 retry: audited mediators, no collaborative mode.
  {
    Stack stack(config(670));
    MediatorConfig ca = config(671);
    ca.audit = true;
    ca.client_id = "A";
    MediatorConfig cb = config(672);
    cb.audit = true;
    cb.client_id = "B";
    GDocsMediator a(stack.transport.get(), ca, &stack.clock);
    GDocsMediator b(stack.transport.get(), cb, &stack.clock);
    client::GDocsClient writer(&a, "d");
    writer.create();
    writer.insert(0, "alpha beta gamma");
    ASSERT_TRUE(writer.save());
    client::GDocsClient peer(&b, "d");
    peer.open();
    peer.insert(0, ">> ");
    ASSERT_TRUE(peer.save());
    FormData keystroke;
    keystroke.add("session", "1");
    keystroke.add("rev", "1");
    keystroke.add("delta", "=6\t-5");
    ASSERT_TRUE(a.round_trip(net::HttpRequest::post_form("/Doc?docID=d",
                                                         keystroke.encode()))
                    .ok());
    EXPECT_EQ(a.counters().audit_chain_retries, 1u);
    EXPECT_EQ(a.managed_plaintext("d"), ">> alpha gamma");
    expect_coherent(a, "d", "chain-412 retry");
    EXPECT_EQ(stack.server.raw_content("d"), a.session("d")->container());
  }
}

TEST_P(SessionContainerCache, OfflineQueueFlushDedupeAndRebase) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("privedit-cache-" + std::to_string(::getpid()) + "-" +
       std::to_string(static_cast<int>(GetParam())));
  std::filesystem::remove_all(dir);
  cloud::GDocsServer server;
  server.set_strict_revisions(true);
  net::SimClock clock;
  net::LoopbackTransport transport(
      [&](const net::HttpRequest& r) { return server.handle(r); }, &clock,
      net::LatencyModel{0, 0, 0, 0, 0}, crypto::CtrDrbg::from_seed(680));
  net::FaultyChannel faulty(&transport, net::FaultSpec{},
                            std::make_unique<Xoshiro256>(681), &clock);
  net::OutageSchedule outages;
  // A lost ack (the first flush lands, its reply dies), then a blackout.
  outages.windows.push_back(
      {50'000, 120'000, net::OutageKind::kAsymDown, 1.0});
  outages.windows.push_back(
      {1'000'000, 1'300'000, net::OutageKind::kBlackout, 1.0});
  faulty.set_outages(outages);
  MediatorConfig ca = config(682);
  ca.offline.enabled = true;
  ca.offline.breaker.cooldown_us = 100'000;
  ca.journal_dir = dir.string();
  GDocsMediator a(&faulty, ca, &clock);
  MediatorConfig cb = config(683);
  cb.collaborative = true;
  GDocsMediator b(&transport, cb, &clock);
  const auto drain = [&] {
    for (int i = 0; i < 20; ++i) {
      if (a.try_flush("d")) return true;
      clock.advance_us(100'000);
    }
    return false;
  };

  client::GDocsClient writer(&a, "d");
  writer.create();
  writer.insert(0, "payload");
  ASSERT_TRUE(writer.save());

  clock.advance_us(60'000);
  writer.insert(7, "-once");
  ASSERT_TRUE(writer.save());  // delivered, ack lost: offline
  ASSERT_TRUE(a.offline_active("d"));
  writer.erase(0, 3);
  ASSERT_TRUE(writer.save());  // queued
  expect_coherent(a, "d", "offline queue");
  clock.advance_us(200'000);
  ASSERT_TRUE(drain());
  EXPECT_GE(a.counters().offline_dedupes, 1u);
  expect_coherent(a, "d", "flush after dedupe");
  EXPECT_EQ(a.managed_plaintext("d"), "load-once");

  client::GDocsClient peer(&b, "d");
  peer.open();
  clock.advance_us(1'000'000 - clock.now_us() + 10'000);
  writer.insert(0, "[");
  ASSERT_TRUE(writer.save());  // blackout: offline again
  ASSERT_TRUE(a.offline_active("d"));
  expect_coherent(a, "d", "second offline queue");
  peer.insert(peer.text().size(), "!");
  ASSERT_TRUE(peer.save());
  clock.advance_us(400'000);
  ASSERT_TRUE(drain());
  EXPECT_GE(a.counters().offline_rebases, 1u);
  EXPECT_EQ(a.managed_plaintext("d"), "[load-once!");
  expect_coherent(a, "d", "flush after rebase");
  EXPECT_EQ(server.raw_content("d"), a.session("d")->container());
  std::filesystem::remove_all(dir);
}

TEST_P(SessionContainerCache, RotatePassword) {
  Stack stack(config(690));
  client::GDocsClient c(stack.mediator.get(), "d");
  c.create();
  c.insert(0, "rotate me");
  ASSERT_TRUE(c.save());
  const DocumentSession rotated = rotate_password(
      *stack.mediator->session("d"), "new pw", seeded_rng_factory(691));
  EXPECT_EQ(rotated.container(), rotated.scheme().ciphertext_doc());
  const DocumentSession reopened = DocumentSession::open(
      "new pw", rotated.container(), seeded_rng_factory(692));
  EXPECT_EQ(reopened.plaintext(), "rotate me");
  EXPECT_EQ(reopened.container(), rotated.container());
}

INSTANTIATE_TEST_SUITE_P(Modes, SessionContainerCache,
                         ::testing::Values(enc::Mode::kRecb, enc::Mode::kRpc,
                                           enc::Mode::kCoClo),
                         [](const auto& info) {
                           switch (info.param) {
                             case enc::Mode::kRecb:
                               return std::string("rECB");
                             case enc::Mode::kRpc:
                               return std::string("RPC");
                             case enc::Mode::kCoClo:
                               return std::string("CoClo");
                           }
                           return std::string("unknown");
                         });

}  // namespace
}  // namespace privedit::extension
