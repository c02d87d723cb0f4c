// Fork-consistency audit chain (DESIGN.md §16):
//
//  - enc/audit_record: chain/link/witness MAC math and wire codecs — a
//    forged, spliced, or replayed-at-the-wrong-position link must fail
//    verification, and every wire form round-trips;
//  - extension/audit: the DocumentAuditor state machine — staged-link
//    write-ahead discipline, served-chain classification (rollback vs
//    fork vs equivocation), witness prefix-compatibility, suppression
//    detection, and crash-at-seam durability of the committed head
//    (the audit.append.* points);
//  - cloud/gdocs_server + doc_table: the sidecar-before-record persist
//    ordering contract — a crash between the two puts must restore to a
//    self-consistent state (orphan chain links trimmed), never to an
//    acknowledged-looking revision with no chain link — and the O(link)
//    chain append, byte-identical to a decode/push/prune/encode of the
//    whole chain, whose one-link tail is all a 2xx save ack carries;
//  - the mediator raising typed IntegrityErrors on served histories an
//    honest server cannot produce, and on a forged 2xx save ack.

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "privedit/client/gdocs_client.hpp"
#include "privedit/cloud/file_store.hpp"
#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/crypto/ctr_drbg.hpp"
#include "privedit/enc/audit_record.hpp"
#include "privedit/extension/audit.hpp"
#include "privedit/extension/mediator.hpp"
#include "privedit/net/socket.hpp"
#include "privedit/util/crashpoint.hpp"
#include "privedit/util/crc32.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/hex.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::extension {
namespace {

namespace fs = std::filesystem;

Bytes test_key() { return enc::derive_audit_key("pw", "doc"); }

/// A genuine chain of `n` links over revs 1..n, alternating writers, as
/// honest clients would have produced it.
enc::AuditChain genuine_chain(const Bytes& key, std::size_t n) {
  enc::AuditChain chain;
  chain.base_rev = 0;
  chain.base_head = enc::genesis_head(key, "doc");
  Bytes prev = chain.base_head;
  for (std::size_t i = 1; i <= n; ++i) {
    enc::AuditLink link;
    link.rev = i;
    link.crc = static_cast<std::uint32_t>(0xc0ffee00 + i);
    link.client = (i % 2 == 1) ? "A" : "B";
    link.head = enc::chain_head(key, prev, link.rev, link.crc, link.client);
    prev = link.head;
    chain.links.push_back(std::move(link));
  }
  return chain;
}

// ------------------------------------------------- enc/audit_record

TEST(AuditRecords, ChainVerifiesAndRejectsForgery) {
  const Bytes key = test_key();
  enc::AuditChain chain = genuine_chain(key, 4);
  EXPECT_TRUE(enc::verify_chain(key, chain));
  EXPECT_EQ(chain.tip_rev(), 4u);
  ASSERT_TRUE(chain.head_at(2).has_value());
  EXPECT_EQ(*chain.head_at(2), chain.links[1].head);
  EXPECT_EQ(*chain.head_at(0), chain.base_head);
  EXPECT_FALSE(chain.head_at(9).has_value());

  // The server cannot mint, edit, or splice links without the key.
  enc::AuditChain forged = chain;
  forged.links[2].crc ^= 1;
  EXPECT_FALSE(enc::verify_chain(key, forged));
  forged = chain;
  forged.links[1].client = "M";
  EXPECT_FALSE(enc::verify_chain(key, forged));
  forged = chain;
  forged.links.erase(forged.links.begin() + 1);  // splice a link out
  EXPECT_FALSE(enc::verify_chain(key, forged));
  forged = chain;
  forged.links[3].head[0] ^= 0x80;
  EXPECT_FALSE(enc::verify_chain(key, forged));
  // A different document's key verifies nothing.
  EXPECT_FALSE(enc::verify_chain(enc::derive_audit_key("pw", "other"), chain));
}

TEST(AuditRecords, WireFormsRoundTripAndRejectMalformed) {
  const Bytes key = test_key();
  const enc::AuditChain chain = genuine_chain(key, 3);
  EXPECT_EQ(enc::decode_chain(enc::encode_chain(chain)), chain);
  EXPECT_EQ(enc::decode_link(enc::encode_link(chain.links[0])),
            chain.links[0]);
  const enc::AuditWitness w =
      enc::make_witness(key, "A", 3, chain.links[2].head);
  EXPECT_EQ(enc::decode_witness(enc::encode_witness(w)), w);

  EXPECT_THROW(enc::decode_chain(""), ParseError);
  EXPECT_THROW(enc::decode_chain("notanumber:00"), ParseError);
  EXPECT_THROW(enc::decode_link("1:zz:41:00"), ParseError);
  EXPECT_THROW(enc::decode_witness("41:1:00"), ParseError);
}

TEST(AuditRecords, WitnessMacBindsEveryField) {
  const Bytes key = test_key();
  const Bytes head = enc::genesis_head(key, "doc");
  const enc::AuditWitness w = enc::make_witness(key, "A", 7, head);
  EXPECT_TRUE(enc::verify_witness(key, w));
  enc::AuditWitness t = w;
  t.rev = 8;
  EXPECT_FALSE(enc::verify_witness(key, t));
  t = w;
  t.client = "B";
  EXPECT_FALSE(enc::verify_witness(key, t));
  t = w;
  t.head[5] ^= 1;
  EXPECT_FALSE(enc::verify_witness(key, t));
}

TEST(AuditRecords, AuditKeyIsPerDocumentAndPerPassword) {
  EXPECT_NE(enc::derive_audit_key("pw", "doc"),
            enc::derive_audit_key("pw", "doc2"));
  EXPECT_NE(enc::derive_audit_key("pw", "doc"),
            enc::derive_audit_key("pw2", "doc"));
}

// ------------------------------------------------- DocumentAuditor

TEST(Auditor, StageCommitAdvancesCommittedHead) {
  const Bytes key = test_key();
  DocumentAuditor a(key, "doc", "A");
  EXPECT_FALSE(a.initialized());
  a.reset(0);
  ASSERT_TRUE(a.initialized());
  EXPECT_EQ(a.committed_head(), enc::genesis_head(key, "doc"));

  const enc::AuditLink link = a.stage_link(1, 0x1234);
  EXPECT_EQ(link.head, enc::chain_head(key, a.committed_head(), 1, 0x1234,
                                       "A"));
  EXPECT_TRUE(a.has_staged());
  EXPECT_EQ(a.committed_rev(), 0u);  // not committed until acked
  a.commit_staged();
  EXPECT_FALSE(a.has_staged());
  EXPECT_EQ(a.committed_rev(), 1u);
  EXPECT_EQ(a.committed_head(), link.head);

  a.stage_link(2, 0x5678);
  a.drop_staged();  // clean rejection: forget, don't commit
  EXPECT_FALSE(a.has_staged());
  EXPECT_EQ(a.committed_rev(), 1u);
}

TEST(Auditor, VerifyServedClassifiesRollbackForkAndCrcMismatch) {
  const Bytes key = test_key();
  const enc::AuditChain chain = genuine_chain(key, 4);
  DocumentAuditor a(key, "doc", "A");
  a.reset(0);

  // Honest serve: fast-forward through the verified links.
  auto v = a.verify_served(chain, 4, chain.links[3].crc);
  EXPECT_EQ(v.verdict, AuditVerdict::kOk) << v.detail;
  EXPECT_EQ(a.committed_rev(), 4u);
  EXPECT_EQ(a.committed_head(), chain.links[3].head);

  // Rollback: old-but-genuine prefix served again.
  enc::AuditChain old = chain;
  old.links.resize(2);
  v = a.verify_served(old, 2, old.links[1].crc);
  EXPECT_EQ(v.verdict, AuditVerdict::kRollback);

  // Fork: the chain speaks for a different rev than the served state.
  v = a.verify_served(chain, 5, chain.links[3].crc);
  EXPECT_EQ(v.verdict, AuditVerdict::kFork);

  // Fork: tip link does not bind the container actually served.
  v = a.verify_served(chain, 4, chain.links[3].crc ^ 1);
  EXPECT_EQ(v.verdict, AuditVerdict::kFork);

  // Fork: substituted history (same shape, different heads).
  const enc::AuditChain other =
      genuine_chain(enc::derive_audit_key("pw", "doc"), 4);
  enc::AuditChain divergent = genuine_chain(key, 3);
  enc::AuditLink link;
  link.rev = 4;
  link.crc = 0x9999;  // differs from what we fast-forwarded through
  link.client = "M";
  link.head = enc::chain_head(key, divergent.links[2].head, 4, link.crc, "M");
  divergent.links.push_back(link);
  v = a.verify_served(divergent, 4, 0x9999);
  EXPECT_EQ(v.verdict, AuditVerdict::kFork);
  (void)other;
}

TEST(Auditor, StagedLinkResolvedLikeJournalCasReplay) {
  const Bytes key = test_key();
  DocumentAuditor a(key, "doc", "A");
  a.reset(0);
  enc::AuditChain chain;
  chain.base_rev = 0;
  chain.base_head = enc::genesis_head(key, "doc");

  // Ack lost but the save landed: the served chain contains our exact
  // staged head, so it commits.
  const enc::AuditLink staged = a.stage_link(1, 0x11);
  chain.links.push_back(staged);
  auto v = a.verify_served(chain, 1, 0x11);
  EXPECT_EQ(v.verdict, AuditVerdict::kOk) << v.detail;
  EXPECT_TRUE(v.staged_resolved);
  EXPECT_TRUE(v.staged_landed);
  EXPECT_EQ(a.committed_rev(), 1u);
  EXPECT_FALSE(a.has_staged());

  // Save never landed: chain ends before the staged rev — dropped, to be
  // re-staged by the resend.
  a.stage_link(2, 0x22);
  v = a.verify_served(chain, 1, 0x11);
  EXPECT_EQ(v.verdict, AuditVerdict::kOk) << v.detail;
  EXPECT_TRUE(v.staged_resolved);
  EXPECT_FALSE(v.staged_landed);
  EXPECT_FALSE(a.has_staged());

  // Our rev taken by someone else's link: the write was discarded from
  // this history — fork.
  a.stage_link(2, 0x22);
  enc::AuditLink theirs;
  theirs.rev = 2;
  theirs.crc = 0x33;
  theirs.client = "B";
  theirs.head =
      enc::chain_head(key, chain.links[0].head, 2, theirs.crc, "B");
  chain.links.push_back(theirs);
  v = a.verify_served(chain, 2, 0x33);
  EXPECT_EQ(v.verdict, AuditVerdict::kFork);
}

TEST(Auditor, PeerWitnessPrefixCompatibility) {
  const Bytes key = test_key();
  const enc::AuditChain chain = genuine_chain(key, 3);
  DocumentAuditor a(key, "doc", "A");
  a.reset(0);
  ASSERT_EQ(a.verify_served(chain, 3, chain.links[2].crc).verdict,
            AuditVerdict::kOk);

  // Agreeing witness at a rev inside our evidence window: fine.
  auto v = a.check_witness(
      enc::make_witness(key, "B", 2, chain.links[1].head));
  EXPECT_EQ(v.verdict, AuditVerdict::kOk) << v.detail;

  // MAC-invalid witness: server-injected garbage, ignored.
  enc::AuditWitness garbage =
      enc::make_witness(key, "B", 2, chain.links[1].head);
  garbage.mac[0] ^= 1;
  v = a.check_witness(garbage);
  EXPECT_EQ(v.verdict, AuditVerdict::kOk);

  // Conflicting witness at a rev we hold evidence for: the server showed
  // the peer a different history — equivocation, proven by MAC.
  Bytes wrong = chain.links[1].head;
  wrong[0] ^= 0x40;
  v = a.check_witness(enc::make_witness(key, "B", 2, wrong));
  EXPECT_EQ(v.verdict, AuditVerdict::kEquivocation);

  // A witness ahead of us is remembered and judged against the next
  // verified chain; a chain that omits the witnessed head convicts.
  const enc::AuditChain longer = genuine_chain(key, 5);
  Bytes ahead = longer.links[4].head;
  ahead[3] ^= 2;
  v = a.check_witness(enc::make_witness(key, "B", 5, ahead));
  EXPECT_EQ(v.verdict, AuditVerdict::kOk) << "ahead: deferred, not judged";
  v = a.verify_served(longer, 5, longer.links[4].crc);
  EXPECT_EQ(v.verdict, AuditVerdict::kEquivocation);
}

TEST(Auditor, WitnessSuppressionDetection) {
  const Bytes key = test_key();
  DocumentAuditor a(key, "doc", "A");
  a.reset(0);
  a.stage_link(1, 0x11);
  a.commit_staged();

  // Never published: a missing witness proves nothing.
  EXPECT_FALSE(a.witness_suppressed(std::nullopt));

  const enc::AuditWitness own = a.own_witness();
  EXPECT_TRUE(enc::verify_witness(key, own));
  a.note_witness_published();
  EXPECT_FALSE(a.witness_suppressed(own));
  // Published but absent from the served set: suppression.
  EXPECT_TRUE(a.witness_suppressed(std::nullopt));
  // Served a stale (older-rev) witness after we published a newer one.
  a.stage_link(2, 0x22);
  a.commit_staged();
  a.note_witness_published();
  EXPECT_TRUE(a.witness_suppressed(own));
}

class AuditDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CrashPoints::disarm();
    base_ = (fs::temp_directory_path() /
             ("privedit_audit_" +
              std::to_string(
                  ::testing::UnitTest::GetInstance()->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()))
                .string();
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override {
    CrashPoints::disarm();
    fs::remove_all(base_);
  }
  std::string base_;
};

TEST_F(AuditDurabilityTest, CommittedHeadSurvivesReload) {
  const Bytes key = test_key();
  const std::string log = base_ + "/doc.achain";
  Bytes head;
  {
    DocumentAuditor a(key, "doc", "A", log);
    a.reset(0);
    a.stage_link(1, 0xaa);
    a.commit_staged();
    a.stage_link(2, 0xbb);  // in flight at "power loss"
    head = a.committed_head();
  }
  DocumentAuditor a(key, "doc", "A", log);
  EXPECT_TRUE(a.initialized());
  EXPECT_EQ(a.committed_rev(), 1u);
  EXPECT_EQ(a.committed_head(), head);
  ASSERT_TRUE(a.has_staged());
  EXPECT_EQ(a.staged()->rev, 2u);
  EXPECT_EQ(a.staged()->crc, 0xbbu);
}

TEST_F(AuditDurabilityTest, CrashAtEveryAuditAppendSeamKeepsDurablePrefix) {
  const Bytes key = test_key();
  for (const char* point :
       {"audit.append.before_write", "audit.append.torn",
        "audit.append.before_fsync"}) {
    SCOPED_TRACE(point);
    const std::string log = base_ + "/" + point;
    Bytes head;
    {
      DocumentAuditor a(key, "doc", "A", log);
      a.reset(0);
      a.stage_link(1, 0xaa);
      a.commit_staged();
      head = a.committed_head();
      CrashPoints::arm(point);
      EXPECT_THROW(a.stage_link(2, 0xbb), CrashError);
    }
    CrashPoints::disarm();
    // The committed head — the fork-detection anchor — is always intact;
    // the staged record is either fully there or cleanly gone.
    DocumentAuditor a(key, "doc", "A", log);
    EXPECT_TRUE(a.initialized());
    EXPECT_EQ(a.committed_rev(), 1u);
    EXPECT_EQ(a.committed_head(), head);
    EXPECT_TRUE(!a.has_staged() || a.staged()->rev == 2u);
  }
}

// ------------------------------------- server-side persist ordering

net::HttpRequest doc_request(const std::string& body) {
  net::HttpRequest req = net::HttpRequest::post_form("/Doc?docID=doc", body);
  req.headers.set("X-Privedit-Client", "A");
  return req;
}

/// One save through the raw server with the auditor's link attached, the
/// way the mediator sends it.
net::HttpResponse audited_save(cloud::GDocsServer& server,
                               DocumentAuditor& auditor,
                               const std::string& session,
                               std::uint64_t base_rev,
                               const std::string& content) {
  const enc::AuditLink link =
      auditor.stage_link(auditor.committed_rev() + 1, crc32(as_bytes(content)));
  FormData form;
  form.add("session", session);
  form.add("rev", std::to_string(base_rev));
  form.add("docContents", content);
  form.add("alink", enc::encode_link(link));
  form.add("abase", hex_encode(auditor.committed_head()));
  form.add("abaserev", std::to_string(auditor.committed_rev()));
  return server.handle(doc_request(form.encode()));
}

TEST_F(AuditDurabilityTest, CrashBetweenSidecarAndRecordTrimsOrphanLink) {
  const Bytes key = test_key();
  const std::string dir = base_ + "/store";
  std::string session;
  {
    cloud::GDocsServer server;
    server.enable_persistence(dir);
    DocumentAuditor auditor(key, "doc", "A");
    auditor.reset(0);
    FormData create;
    create.add("cmd", "create");
    create.add("abase", hex_encode(auditor.committed_head()));
    ASSERT_EQ(server.handle(doc_request(create.encode())).status, 201);
    FormData open;
    open.add("cmd", "open");
    const net::HttpResponse opened =
        server.handle(doc_request(open.encode()));
    ASSERT_EQ(opened.status, 200);
    session = FormData::parse(opened.body).get("session").value_or("");

    ASSERT_EQ(audited_save(server, auditor, session, 0, "one").status, 200);
    auditor.commit_staged();

    // The save path puts the audit sidecar first, the document record
    // second. Crash on the SECOND put of this save: the sidecar now
    // carries a link for a revision whose record never landed.
    CrashPoints::arm("file_store.put.created", 2);
    EXPECT_THROW(audited_save(server, auditor, session, 1, "two"),
                 CrashError);
  }
  CrashPoints::disarm();

  // Provider reboot. The restored state must be self-consistent: the
  // orphan tip link is trimmed, never the reverse (a revision with no
  // link — indistinguishable from a fork for every honest client).
  cloud::GDocsServer server;
  server.enable_persistence(dir);
  EXPECT_EQ(server.table().audit_restore_skipped(), 1u);
  const cloud::DocTable::Document* doc = server.table().find("doc");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->rev, 1u);
  EXPECT_EQ(doc->content, "one");
  const enc::AuditChain chain = enc::decode_chain(doc->audit_chain);
  EXPECT_TRUE(enc::verify_chain(key, chain));
  EXPECT_EQ(chain.tip_rev(), 1u);

  // The client's resend (the journal-replay analogue) re-lands the save
  // and its link against the trimmed tip.
  DocumentAuditor auditor(key, "doc", "A");
  auditor.adopt(1, chain.links.back().head);
  ASSERT_EQ(audited_save(server, auditor, session, 1, "two").status, 200);
  auditor.commit_staged();
  const cloud::DocTable::Document* after = server.table().find("doc");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->rev, 2u);
  EXPECT_EQ(enc::decode_chain(after->audit_chain).tip_rev(), 2u);
}

/// The server's chain store before the O(link) append: decode the whole
/// chain, push the link, prune to the cap, re-encode. Kept as the
/// reference the append must match byte for byte.
void reference_append(enc::AuditChain& chain, const enc::AuditLink& link) {
  chain.links.push_back(link);
  while (chain.links.size() > cloud::GDocsServer::kAuditChainCap) {
    chain.base_rev = chain.links.front().rev;
    chain.base_head = chain.links.front().head;
    chain.links.erase(chain.links.begin());
  }
}

TEST_F(AuditDurabilityTest, ChainAppendMatchesWholeChainReencode) {
  // Random links (the server cannot check MACs, only revisions) run the
  // chain past the cap, through a sync adoption of a non-canonical chain,
  // a provider restart, and an unparseable sync that drops the chain.
  const std::string dir = base_ + "/store";
  std::mt19937_64 rng(0xa11ce);
  const auto random_head = [&] {
    Bytes head(32);
    for (auto& b : head) b = static_cast<std::uint8_t>(rng());
    return head;
  };
  const char* const clients[] = {"A", "B", "", "writer-7"};
  auto server = std::make_unique<cloud::GDocsServer>();
  server->enable_persistence(dir);
  enc::AuditChain reference;
  reference.base_head = random_head();
  FormData create;
  create.add("cmd", "create");
  create.add("abase", hex_encode(reference.base_head));
  ASSERT_EQ(server->handle(doc_request(create.encode())).status, 201);

  const auto stored = [&] {
    const cloud::DocTable::Document* doc = server->table().find("doc");
    return doc == nullptr ? std::string() : doc->audit_chain;
  };
  const auto save = [&](bool rooted) {
    const cloud::DocTable::Document* doc = server->table().find("doc");
    enc::AuditLink link;
    link.rev = doc->rev + 1;
    link.crc = static_cast<std::uint32_t>(rng());
    link.client = clients[rng() % 4];
    link.head = random_head();
    FormData form;
    form.add("rev", std::to_string(doc->rev));
    form.add("docContents", "v" + std::to_string(link.rev));
    form.add("alink", enc::encode_link(link));
    if (!rooted) {
      reference = enc::AuditChain{doc->rev, random_head(), {}};
      form.add("abase", hex_encode(reference.base_head));
      form.add("abaserev", std::to_string(reference.base_rev));
    }
    const enc::AuditChain prev_tip{
        reference.tip_rev(),
        reference.links.empty() ? reference.base_head
                                : reference.links.back().head,
        {}};
    const net::HttpResponse resp = server->handle(doc_request(form.encode()));
    ASSERT_EQ(resp.status, 200);
    reference_append(reference, link);
    EXPECT_EQ(FormData::parse(resp.body).get("achain"),
              enc::encode_chain({prev_tip.base_rev, prev_tip.base_head, {link}}));
    ASSERT_EQ(stored(), enc::encode_chain(reference));
  };

  for (int i = 0; i < 600; ++i) {
    save(/*rooted=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(reference.links.size(), cloud::GDocsServer::kAuditChainCap);

  // Sync adoption of a chain one link under the cap, spelled with
  // upper-case hex: stored canonically, so the next appends stay exact.
  enc::AuditChain pushed{700, random_head(), {}};
  for (std::uint64_t rev = 701; rev < 700 + cloud::GDocsServer::kAuditChainCap;
       ++rev) {
    pushed.links.push_back({rev, static_cast<std::uint32_t>(rng()), "B",
                            random_head()});
  }
  std::string upper = enc::encode_chain(pushed);
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  FormData sync;
  sync.add("cmd", "sync");
  sync.add("rev", std::to_string(pushed.tip_rev()));
  sync.add("content", "synced");
  sync.add("achain", upper);
  ASSERT_TRUE(server->handle(doc_request(sync.encode())).ok());
  reference = pushed;
  ASSERT_EQ(stored(), enc::encode_chain(reference));
  for (int i = 0; i < 3; ++i) save(/*rooted=*/true);

  // Provider restart: the restored chain appends exactly as before.
  server = std::make_unique<cloud::GDocsServer>();
  server->enable_persistence(dir);
  ASSERT_EQ(stored(), enc::encode_chain(reference));
  for (int i = 0; i < 3; ++i) save(/*rooted=*/true);
  EXPECT_EQ(reference.links.size(), cloud::GDocsServer::kAuditChainCap);

  // An unparseable chain is dropped at adoption; the next save re-roots.
  sync.set("rev", std::to_string(server->table().find("doc")->rev));
  sync.set("achain", "not a chain");
  ASSERT_TRUE(server->handle(doc_request(sync.encode())).ok());
  EXPECT_EQ(stored(), "");
  save(/*rooted=*/false);
  save(/*rooted=*/true);
}

// ------------------------------------------- mediator classification

struct AuditStack {
  explicit AuditStack(const std::string& journal_dir, std::uint64_t seed) {
    MediatorConfig c;
    c.password = "pw";
    c.scheme.kdf_iterations = 5;
    c.rng_factory = seeded_rng_factory(seed + 1);
    c.client_id = "A";
    c.audit = true;
    c.journal_dir = journal_dir;
    transport = std::make_unique<net::LoopbackTransport>(
        [this](const net::HttpRequest& r) { return wire(r); }, &clock,
        net::LatencyModel{}, crypto::CtrDrbg::from_seed(seed));
    mediator = std::make_unique<GDocsMediator>(transport.get(), std::move(c),
                                               &clock);
  }

  /// The path between mediator and server. An audited save can be lost
  /// (`drop_saves`), and its 2xx ack is kept as sent (`last_save_ack`)
  /// before `forge_ack` rewrites it.
  net::HttpResponse wire(const net::HttpRequest& r) {
    const bool audited_save = FormData::parse(r.body).contains("alink");
    if (audited_save && drop_saves) {
      throw net::TransportError(net::FaultKind::kConnect, "save lost");
    }
    net::HttpResponse resp = server.handle(r);
    if (audited_save && resp.ok()) {
      last_save_ack = resp.body;
      if (forge_ack) {
        FormData ack = FormData::parse(resp.body);
        forge_ack(ack);
        resp.body = ack.encode();
      }
    }
    return resp;
  }

  cloud::GDocsServer server;
  net::SimClock clock;
  std::unique_ptr<net::LoopbackTransport> transport;
  std::unique_ptr<GDocsMediator> mediator;
  bool drop_saves = false;
  std::string last_save_ack;
  std::function<void(FormData&)> forge_ack;
};

TEST_F(AuditDurabilityTest, FullSaveChainRetriesAreBoundedAndDropTheLink) {
  // An on-path adversary bumps every save's link revision, so the server
  // chain-rejects each attempt (412 areason=chain) with honest content and
  // chain. The full save re-stages and resends twice, then gives up with
  // the 412 — three counted retries — and leaves no staged link behind,
  // neither in memory nor in the durable log.
  cloud::GDocsServer server;
  net::SimClock clock;
  bool bump_links = false;
  std::size_t saves_sent = 0;
  net::LoopbackTransport transport(
      [&](net::HttpRequest r) {
        FormData f = FormData::parse(r.body);
        if (f.contains("docContents")) ++saves_sent;
        if (const auto wire = f.get("alink"); wire && bump_links) {
          enc::AuditLink link = enc::decode_link(*wire);
          link.rev += 5;
          f.set("alink", enc::encode_link(link));
          r.body = f.encode();
        }
        return server.handle(r);
      },
      &clock, net::LatencyModel{}, crypto::CtrDrbg::from_seed(4400));
  MediatorConfig c;
  c.password = "pw";
  c.scheme.kdf_iterations = 5;
  c.rng_factory = seeded_rng_factory(4401);
  c.client_id = "A";
  c.audit = true;
  c.journal_dir = base_;
  GDocsMediator mediator(&transport, std::move(c), &clock);
  client::GDocsClient writer(&mediator, "doc");
  writer.create();
  writer.insert(0, "chained payload");
  ASSERT_TRUE(writer.save());
  ASSERT_EQ(mediator.counters().audit_links_committed, 1u);

  bump_links = true;
  saves_sent = 0;
  FormData save;
  save.add("session", "1");
  save.add("rev", "1");
  save.add("docContents", "chained payload, edited");
  const net::HttpResponse resp = mediator.round_trip(
      net::HttpRequest::post_form("/Doc?docID=doc", save.encode()));
  EXPECT_EQ(resp.status, 412);
  EXPECT_EQ(saves_sent, 3u);
  EXPECT_EQ(mediator.counters().audit_chain_retries, 3u);
  EXPECT_EQ(mediator.counters().audit_links_committed, 1u);
  EXPECT_EQ(server.table().find("doc")->rev, 1u);
  {
    DocumentAuditor reloaded(enc::derive_audit_key("pw", "doc"), "doc", "A",
                             base_ + "/" + hex_encode(as_bytes("doc")) +
                                 ".achain");
    EXPECT_FALSE(reloaded.has_staged());
    EXPECT_EQ(reloaded.committed_rev(), 1u);
  }

  // The adversary steps aside: the next save extends the chain cleanly.
  bump_links = false;
  save.set("docContents", "chained payload, edited again");
  EXPECT_TRUE(mediator
                  .round_trip(net::HttpRequest::post_form("/Doc?docID=doc",
                                                          save.encode()))
                  .ok());
  EXPECT_EQ(mediator.counters().audit_links_committed, 2u);
  client::GDocsClient reader(&mediator, "doc");
  reader.open();
  EXPECT_EQ(reader.text(), "chained payload, edited again");
}

TEST_F(AuditDurabilityTest, MediatorRaisesRollbackErrorOnReplayedHistory) {
  AuditStack stack(base_, 4200);
  client::GDocsClient writer(stack.mediator.get(), "doc");
  writer.create();
  writer.insert(0, "first revision");
  ASSERT_TRUE(writer.save());
  const cloud::DocTable::Document* doc = stack.server.table().find("doc");
  ASSERT_NE(doc, nullptr);
  const std::string old_content = doc->content;
  const std::uint64_t old_rev = doc->rev;
  const std::string old_chain = doc->audit_chain;
  writer.insert(0, "second ");
  ASSERT_TRUE(writer.save());

  // Malicious replay: re-serve the full old (content, rev, chain) tuple.
  FormData replay;
  replay.add("cmd", "sync");
  replay.add("content", old_content);
  replay.add("rev", std::to_string(old_rev));
  replay.add("achain", old_chain);
  ASSERT_EQ(stack.server.handle(doc_request(replay.encode())).status, 200);

  client::GDocsClient reader(stack.mediator.get(), "doc");
  EXPECT_THROW(reader.open(), RollbackError);
  // Two layers guard this: the journal's last-acked anchor (which runs
  // first and wins here) and the audit chain. Either way the open dies
  // with the rollback classification.
  EXPECT_GE(stack.mediator->counters().rollbacks_detected +
                stack.mediator->counters().audit_rollbacks,
            1u);
}

TEST_F(AuditDurabilityTest, MediatorRaisesForkErrorOnChainlessAdvance) {
  AuditStack stack(base_, 4300);
  client::GDocsClient writer(stack.mediator.get(), "doc");
  writer.create();
  writer.insert(0, "payload");
  ASSERT_TRUE(writer.save());

  // The server advances the revision without a matching chain link — a
  // history substitution no honest server produces (an honest crash
  // restores to the trimmed, consistent state instead).
  const cloud::DocTable::Document* doc = stack.server.table().find("doc");
  ASSERT_NE(doc, nullptr);
  stack.server.set_raw_content("doc", doc->content);

  client::GDocsClient reader(stack.mediator.get(), "doc");
  EXPECT_THROW(reader.open(), ForkError);
  EXPECT_GE(stack.mediator->counters().audit_forks, 1u);
}

/// Rewrites the chain tail of a 2xx save ack.
std::function<void(FormData&)> edit_tail(
    std::function<void(enc::AuditChain&)> edit) {
  return [edit = std::move(edit)](FormData& ack) {
    enc::AuditChain tail = enc::decode_chain(ack.get("achain").value_or(""));
    edit(tail);
    ack.set("achain", enc::encode_chain(tail));
  };
}

TEST_F(AuditDurabilityTest, ForgedSaveAckTailRaisesForkError) {
  // A 2xx save ack must carry exactly the committed head plus the staged
  // link. An on-path adversary (or a lying server) that rewrites the tail
  // is a fork, caught before the link is committed — on the journal
  // replay path and on a live save alike.
  AuditStack stack(base_, 4500);
  GDocsMediator& mediator = *stack.mediator;
  client::GDocsClient writer(&mediator, "doc");
  writer.create();
  writer.insert(0, "honest");
  ASSERT_TRUE(writer.save());  // the unmodified ack passes
  EXPECT_EQ(mediator.counters().audit_links_committed, 1u);
  const auto save = [&](const std::string& text) {
    FormData form;
    form.add("session", "1");
    form.add("rev", std::to_string(stack.server.table().find("doc")->rev));
    form.add("docContents", text);
    return mediator.round_trip(
        net::HttpRequest::post_form("/Doc?docID=doc", form.encode()));
  };
  const auto wrong_base_head =
      edit_tail([](enc::AuditChain& t) { t.base_head[0] ^= 1; });
  std::size_t forks = 0;

  // A save lost on the wire stays pending; the next open replays it and
  // the replay's ack is forged.
  stack.drop_saves = true;
  EXPECT_THROW(save("lost on the wire"), net::TransportError);
  stack.drop_saves = false;
  stack.forge_ack = wrong_base_head;
  client::GDocsClient reader(&mediator, "doc");
  EXPECT_THROW(reader.open(), ForkError);
  EXPECT_EQ(mediator.counters().audit_forks, ++forks);

  const std::vector<std::pair<std::string, std::function<void(FormData&)>>>
      forgeries = {
          {"wrong base head", wrong_base_head},
          {"wrong base rev",
           edit_tail([](enc::AuditChain& t) { t.base_rev -= 1; })},
          {"substituted link",
           edit_tail([](enc::AuditChain& t) { t.links[0].crc ^= 1; })},
          {"two links",
           edit_tail([](enc::AuditChain& t) {
             enc::AuditLink extra = t.links[0];
             extra.rev += 1;
             t.links.push_back(extra);
           })},
          {"no achain", [](FormData& ack) { ack.remove("achain"); }},
      };
  for (const auto& [name, forge] : forgeries) {
    SCOPED_TRACE(name);
    stack.forge_ack = forge;
    EXPECT_THROW(save("forged: " + name), ForkError);
    EXPECT_EQ(mediator.counters().audit_forks, ++forks);
  }
  // Every forged save did land; none of their links was committed.
  EXPECT_EQ(mediator.counters().audit_links_committed, 1u);

  // The adversary steps aside: the next save extends the chain cleanly
  // and an open verifies the whole history.
  stack.forge_ack = nullptr;
  EXPECT_TRUE(save("honest again").ok());
  EXPECT_EQ(mediator.counters().audit_links_committed, 2u);
  reader.open();
  EXPECT_EQ(reader.text(), "honest again");
  EXPECT_EQ(mediator.counters().audit_forks, forks);
}

TEST_F(AuditDurabilityTest, SaveAckStaysSmallWhileTheChainIsFull) {
  // 600 audited saves fill the stored chain to its cap. A keystroke's 2xx
  // ack still carries only its one-link tail; an open and a chain 412
  // carry the whole chain, tip at the served rev.
  AuditStack stack("", 4600);
  client::GDocsClient writer(stack.mediator.get(), "doc");
  writer.create();
  for (int i = 0; i < 600; ++i) {
    writer.insert(writer.text().size(), "x");
    ASSERT_TRUE(writer.save());
  }
  const cloud::DocTable::Document* doc = stack.server.table().find("doc");
  ASSERT_NE(doc, nullptr);
  ASSERT_EQ(doc->rev, 600u);
  EXPECT_EQ(doc->audit_links, cloud::GDocsServer::kAuditChainCap);
  EXPECT_EQ(stack.mediator->counters().audit_links_committed, 600u);
  EXPECT_LE(stack.last_save_ack.size(), 400u);
  EXPECT_EQ(enc::decode_chain(*FormData::parse(stack.last_save_ack)
                                   .get("achain"))
                .links.size(),
            1u);

  FormData open;
  open.add("cmd", "open");
  const FormData opened =
      FormData::parse(stack.server.handle(doc_request(open.encode())).body);
  EXPECT_EQ(enc::decode_chain(*opened.get("achain")).tip_rev(), 600u);
  EXPECT_EQ(opened.get("rev"), "600");

  enc::AuditLink stale;
  stale.rev = 5;
  stale.client = "A";
  stale.head = Bytes(32, 7);
  FormData save;
  save.add("rev", "600");
  save.add("docContents", "stale");
  save.add("alink", enc::encode_link(stale));
  const net::HttpResponse rejected =
      stack.server.handle(doc_request(save.encode()));
  ASSERT_EQ(rejected.status, 412);
  const FormData rejection = FormData::parse(rejected.body);
  EXPECT_EQ(rejection.get("areason"), "chain");
  const enc::AuditChain chain = enc::decode_chain(*rejection.get("achain"));
  EXPECT_EQ(chain.tip_rev(), 600u);
  EXPECT_EQ(chain.links.size(), cloud::GDocsServer::kAuditChainCap);
  EXPECT_EQ(rejection.get("rev"), "600");
}

}  // namespace
}  // namespace privedit::extension
