// Sharded multi-tenant front door (DESIGN.md §13):
//
//  - consistent-hash ring stability: adding/removing one shard remaps only
//    the keys adjacent to its points (≈ docs/N) and NEVER moves a key
//    between two surviving shards;
//  - routing + lifecycle: every document owned by exactly one shard, with
//    byte-identical content across drains, joins, crashes and restarts;
//  - the migration crash matrix: power loss at every router.migrate.*
//    seam, at every occurrence, must leave every document readable from
//    exactly one owner after the router rebuilds on the same data_dir;
//  - tenant quotas: 507 + Retry-After on doc-count/byte exhaustion, usage
//    decrements on delete, accounting survives a provider restart;
//  - mediator transparency: a client_id-stamped mediator editing through
//    the router bills the right tenant and round-trips plaintext.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/cloud/shard_router.hpp"
#include "privedit/cloud/tenant.hpp"
#include "privedit/crypto/ctr_drbg.hpp"
#include "privedit/extension/mediator.hpp"
#include "privedit/net/admission.hpp"
#include "privedit/net/socket.hpp"
#include "privedit/net/transport.hpp"
#include "privedit/util/crashpoint.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::cloud {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("privedit-shard-" + tag + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

net::HttpRequest doc_request(const std::string& doc_id, const FormData& form,
                             const std::string& tenant = "") {
  net::HttpRequest req = net::HttpRequest::post_form(
      "/Doc?docID=" + percent_encode(doc_id), form.encode());
  if (!tenant.empty()) req.headers.set(net::kClientIdHeader, tenant);
  return req;
}

net::HttpResponse create_doc(ShardRouter& router, const std::string& doc_id,
                             const std::string& tenant = "") {
  FormData f;
  f.add("cmd", "create");
  return router.handle(doc_request(doc_id, f, tenant));
}

net::HttpResponse save_doc(ShardRouter& router, const std::string& doc_id,
                           const std::string& content,
                           const std::string& tenant = "") {
  FormData f;
  f.add("session", "1");
  f.add("rev", "0");
  f.add("docContents", content);
  return router.handle(doc_request(doc_id, f, tenant));
}

net::HttpResponse open_doc(ShardRouter& router, const std::string& doc_id) {
  FormData f;
  f.add("cmd", "open");
  return router.handle(doc_request(doc_id, f));
}

net::HttpResponse delete_doc(ShardRouter& router, const std::string& doc_id,
                             const std::string& tenant = "") {
  FormData f;
  f.add("cmd", "delete");
  return router.handle(doc_request(doc_id, f, tenant));
}

std::vector<std::string> shard_ids(std::size_t n) {
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back("s" + std::to_string(i));
  return ids;
}

// ------------------------------------------------------------ hash ring --

TEST(HashRing, OwnerIsDeterministicAcrossInstances) {
  HashRing a(64);
  HashRing b(64);
  for (const std::string& id : shard_ids(5)) {
    a.add(id);
    b.add(id);
  }
  for (int i = 0; i < 200; ++i) {
    const std::string key = "doc" + std::to_string(i);
    EXPECT_EQ(a.owner(key), b.owner(key));
  }
}

TEST(HashRing, EmptyRingThrows) {
  HashRing ring(8);
  EXPECT_THROW(ring.owner("doc"), Error);
  ring.add("s0");
  EXPECT_EQ(ring.owner("doc"), "s0");
}

// The ring-stability property: removing one shard of N remaps ONLY the
// keys that shard owned (never a key between two survivors), and adding
// one remaps only keys onto the newcomer — in both directions roughly
// docs/N keys, bounded here at 2x to leave room for vnode variance.
TEST(HashRing, RemovingOneShardOnlyRemapsItsOwnKeys) {
  constexpr std::size_t kShards = 8;
  constexpr std::size_t kDocs = 4000;
  HashRing ring(64);
  for (const std::string& id : shard_ids(kShards)) ring.add(id);

  std::map<std::string, std::string> before;
  for (std::size_t i = 0; i < kDocs; ++i) {
    const std::string key = "doc" + std::to_string(i);
    before[key] = ring.owner(key);
  }

  ring.remove("s3");
  std::size_t remapped = 0;
  for (const auto& [key, old_owner] : before) {
    const std::string& now = ring.owner(key);
    if (now != old_owner) {
      ++remapped;
      EXPECT_EQ(old_owner, "s3")
          << key << " moved between surviving shards " << old_owner << " -> "
          << now;
    }
  }
  EXPECT_GT(remapped, 0u);
  EXPECT_LE(remapped, 2 * kDocs / kShards)
      << "removing one of " << kShards << " shards remapped " << remapped
      << " of " << kDocs << " keys";
}

TEST(HashRing, AddingOneShardOnlyRemapsOntoTheNewcomer) {
  constexpr std::size_t kShards = 8;
  constexpr std::size_t kDocs = 4000;
  HashRing ring(64);
  for (const std::string& id : shard_ids(kShards)) ring.add(id);

  std::map<std::string, std::string> before;
  for (std::size_t i = 0; i < kDocs; ++i) {
    const std::string key = "doc" + std::to_string(i);
    before[key] = ring.owner(key);
  }

  ring.add("s8");
  std::size_t remapped = 0;
  for (const auto& [key, old_owner] : before) {
    const std::string& now = ring.owner(key);
    if (now != old_owner) {
      ++remapped;
      EXPECT_EQ(now, "s8") << key << " moved between surviving shards "
                           << old_owner << " -> " << now;
    }
  }
  EXPECT_GT(remapped, 0u);
  EXPECT_LE(remapped, 2 * kDocs / (kShards + 1));
}

TEST(HashRing, SpreadIsRoughlyUniform) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kDocs = 4000;
  HashRing ring(64);
  for (const std::string& id : shard_ids(kShards)) ring.add(id);
  std::map<std::string, std::size_t> load;
  for (std::size_t i = 0; i < kDocs; ++i) {
    ++load[ring.owner("doc" + std::to_string(i))];
  }
  for (const auto& [id, n] : load) {
    EXPECT_GT(n, kDocs / kShards / 3) << id << " nearly starved";
    EXPECT_LT(n, kDocs / kShards * 3) << id << " overloaded";
  }
}

// -------------------------------------------------------------- routing --

TEST(ShardRouterTest, RoutesEveryDocToItsRingOwnerExactlyOnce) {
  ShardRouter router(shard_ids(4), {});
  for (int i = 0; i < 40; ++i) {
    const std::string doc = "doc" + std::to_string(i);
    ASSERT_TRUE(create_doc(router, doc).ok());
    ASSERT_TRUE(save_doc(router, doc, "content-" + doc).ok());
    const auto owners = router.holders(doc);
    ASSERT_EQ(owners.size(), 1u) << doc;
    EXPECT_EQ(owners[0], router.shard_for(doc));
    EXPECT_EQ(router.raw_content(doc).value_or(""), "content-" + doc);
  }
  EXPECT_EQ(router.document_count(), 40u);
  EXPECT_GE(router.counters().routed, 80u);
}

TEST(ShardRouterTest, RejectsUnknownEndpointAndMissingDocId) {
  ShardRouter router(shard_ids(2), {});
  net::HttpRequest bad = net::HttpRequest::post_form("/Elsewhere", "");
  EXPECT_EQ(router.handle(bad).status, 404);
  net::HttpRequest nodoc = net::HttpRequest::post_form("/Doc", "cmd=create");
  EXPECT_EQ(router.handle(nodoc).status, 400);
  EXPECT_EQ(router.counters().bad_requests, 2u);
}

TEST(ShardRouterTest, RequiresAtLeastOneShard) {
  EXPECT_THROW(ShardRouter({}, {}), Error);
}

// ------------------------------------------------------------ lifecycle --

TEST(ShardRouterTest, DrainAndJoinPreserveEveryDocument) {
  TempDir tmp("lifecycle");
  ShardRouterConfig cfg;
  cfg.data_dir = tmp.path.string();
  ShardRouter router(shard_ids(3), cfg);

  std::map<std::string, std::string> expected;
  for (int i = 0; i < 30; ++i) {
    const std::string doc = "doc" + std::to_string(i);
    ASSERT_TRUE(create_doc(router, doc).ok());
    ASSERT_TRUE(save_doc(router, doc, "payload-" + doc).ok());
    expected[doc] = "payload-" + doc;
  }

  router.remove_shard("s1");
  EXPECT_EQ(router.shard_count(), 2u);
  for (const auto& [doc, content] : expected) {
    ASSERT_EQ(router.holders(doc).size(), 1u) << doc << " after drain";
    EXPECT_EQ(router.raw_content(doc).value_or(""), content);
  }
  EXPECT_GT(router.counters().docs_migrated, 0u);

  router.add_shard("s3");
  EXPECT_EQ(router.shard_count(), 3u);
  for (const auto& [doc, content] : expected) {
    ASSERT_EQ(router.holders(doc).size(), 1u) << doc << " after join";
    EXPECT_EQ(router.raw_content(doc).value_or(""), content);
  }
  EXPECT_EQ(router.document_count(), expected.size());
  EXPECT_EQ(router.counters().migrations, 2u);
}

TEST(ShardRouterTest, CannotDrainTheLastShardOrUnknownShards) {
  ShardRouter router(shard_ids(1), {});
  EXPECT_THROW(router.remove_shard("s0"), Error);
  EXPECT_THROW(router.remove_shard("nope"), Error);
  EXPECT_THROW(router.crash_shard("nope"), Error);
  ShardRouter two(shard_ids(2), {});
  EXPECT_THROW(two.add_shard("s0"), Error);  // already present
}

TEST(ShardRouterTest, CrashedShardAnswers503UntilRestart) {
  TempDir tmp("crash");
  ShardRouterConfig cfg;
  cfg.data_dir = tmp.path.string();
  cfg.handoff_retry_after_s = 2;
  ShardRouter router(shard_ids(3), cfg);
  ASSERT_TRUE(create_doc(router, "mydoc").ok());
  ASSERT_TRUE(save_doc(router, "mydoc", "survives the crash").ok());

  const std::string owner = router.shard_for("mydoc");
  router.crash_shard(owner);
  const net::HttpResponse refused = open_doc(router, "mydoc");
  EXPECT_EQ(refused.status, 503);
  EXPECT_TRUE(refused.headers.get("Retry-After").has_value());
  EXPECT_GE(router.counters().down_rejections, 1u);

  router.restart_shard(owner);
  const net::HttpResponse resp = open_doc(router, "mydoc");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(FormData::parse(resp.body).get("content").value_or(""),
            "survives the crash");
}

// Draining a crashed shard would migrate nothing (its in-memory table is
// gone) and then abandon everything its durable store still holds — the
// router must refuse and demand a restart first.
TEST(ShardRouterTest, DrainingACrashedShardIsRefused) {
  TempDir tmp("draindown");
  ShardRouterConfig cfg;
  cfg.data_dir = tmp.path.string();
  ShardRouter router(shard_ids(3), cfg);
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 18; ++i) {
    const std::string doc = "doc" + std::to_string(i);
    ASSERT_TRUE(create_doc(router, doc).ok());
    ASSERT_TRUE(save_doc(router, doc, "keep-" + doc).ok());
    expected[doc] = "keep-" + doc;
  }

  router.crash_shard("s1");
  EXPECT_THROW(router.remove_shard("s1"), Error);
  EXPECT_EQ(router.shard_count(), 3u) << "refused drain must not alter ring";

  // restart → drain is the sanctioned sequence; nothing may be lost.
  router.restart_shard("s1");
  router.remove_shard("s1");
  EXPECT_EQ(router.shard_count(), 2u);
  for (const auto& [doc, content] : expected) {
    ASSERT_EQ(router.holders(doc).size(), 1u) << doc;
    EXPECT_EQ(router.raw_content(doc).value_or(""), content);
  }
}

TEST(ShardRouterTest, MembershipSurvivesRouterRestart) {
  TempDir tmp("membership");
  ShardRouterConfig cfg;
  cfg.data_dir = tmp.path.string();
  {
    ShardRouter router(shard_ids(3), cfg);
    ASSERT_TRUE(create_doc(router, "mydoc").ok());
    ASSERT_TRUE(save_doc(router, "mydoc", "durable").ok());
    router.remove_shard("s2");
  }
  // The restart script still believes in 3 shards; the persisted cutover
  // (2 members) must win.
  ShardRouter reborn(shard_ids(3), cfg);
  EXPECT_EQ(reborn.shard_count(), 2u);
  const auto members = reborn.members();
  EXPECT_EQ(std::set<std::string>(members.begin(), members.end()),
            (std::set<std::string>{"s0", "s1"}));
  EXPECT_EQ(reborn.raw_content("mydoc").value_or(""), "durable");
}

// --------------------------------------------------- migration crash(es) --

// Writes to a document mid-handoff are 503'd with Retry-After while reads
// keep hitting the old owner. Crashing the drain before cutover leaves the
// handoff set populated — the deterministic way to observe the window.
TEST(ShardRouterTest, WritesDuringHandoffAre503ReadsStillServed) {
  TempDir tmp("handoff");
  ShardRouterConfig cfg;
  cfg.data_dir = tmp.path.string();
  cfg.handoff_retry_after_s = 3;
  ShardRouter router(shard_ids(3), cfg);
  for (int i = 0; i < 24; ++i) {
    const std::string doc = "doc" + std::to_string(i);
    ASSERT_TRUE(create_doc(router, doc).ok());
    ASSERT_TRUE(save_doc(router, doc, "v-" + doc).ok());
  }
  // One of the 24 docs lives on s0 with overwhelming probability.
  std::string moving;
  for (int i = 0; i < 24; ++i) {
    const std::string doc = "doc" + std::to_string(i);
    if (router.shard_for(doc) == "s0") moving = doc;
  }
  ASSERT_FALSE(moving.empty());

  CrashPoints::arm("router.migrate.before_cutover", 1);
  EXPECT_THROW(router.remove_shard("s0"), CrashError);
  CrashPoints::disarm();

  const net::HttpResponse write = save_doc(router, moving, "rejected");
  EXPECT_EQ(write.status, 503);
  EXPECT_EQ(write.headers.get("Retry-After").value_or(""), "3");
  EXPECT_GE(router.counters().handoff_rejections, 1u);

  const net::HttpResponse read = open_doc(router, moving);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(FormData::parse(read.body).get("content").value_or(""),
            "v-" + moving);
}

// A create racing a migration, for a doc id whose ring owner CHANGES with
// the pending cutover, must be fenced: it is in no move plan, so letting
// it land on the old owner would orphan it the moment the ring swaps.
// Creates whose owner is unaffected by the migration keep flowing.
TEST(ShardRouterTest, CreatesInMovedRangesAre503DuringHandoff) {
  TempDir tmp("createfence");
  ShardRouterConfig cfg;
  cfg.data_dir = tmp.path.string();
  cfg.handoff_retry_after_s = 2;
  ShardRouter router(shard_ids(3), cfg);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(create_doc(router, "doc" + std::to_string(i)).ok());
  }

  // Crash the drain before cutover: the handoff window stays open, with
  // the ring still routing to s0 — the deterministic way to observe it.
  CrashPoints::arm("router.migrate.before_cutover", 1);
  EXPECT_THROW(router.remove_shard("s0"), CrashError);
  CrashPoints::disarm();

  // Fresh ids (never created): one that currently ring-maps to the
  // draining shard (its owner changes with the target ring) and one that
  // maps to a survivor (its owner is stable across the cutover).
  std::string moving_id, stable_id;
  for (int j = 0; j < 256 && (moving_id.empty() || stable_id.empty()); ++j) {
    const std::string id = "fresh" + std::to_string(j);
    (router.shard_for(id) == "s0" ? moving_id : stable_id) = id;
  }
  ASSERT_FALSE(moving_id.empty());
  ASSERT_FALSE(stable_id.empty());

  const net::HttpResponse fenced = create_doc(router, moving_id);
  EXPECT_EQ(fenced.status, 503);
  EXPECT_EQ(fenced.headers.get("Retry-After").value_or(""), "2");
  EXPECT_GE(router.counters().handoff_rejections, 1u);
  EXPECT_TRUE(create_doc(router, stable_id).ok())
      << "creates outside the moved ranges must not be fenced";
}

// The crash matrix: power loss at every router.migrate.* seam, at every
// occurrence, during a shard drain. A fresh router rebuilt on the same
// data_dir must reconcile whatever the crash left: every document owned by
// exactly one shard, content byte-identical to pre-migration (a drain
// never rewrites content, so pre == post here), zero documents lost.
TEST(ShardRouterTest, EverySeamEveryOccurrenceRecoversWithoutLoss) {
  constexpr const char* kSeams[] = {
      "router.migrate.before_copy",   "router.migrate.copy",
      "router.migrate.before_cutover", "router.migrate.after_cutover",
      "router.migrate.cleanup",
  };
  constexpr int kDocs = 12;
  std::size_t crashes = 0;
  for (const char* seam : kSeams) {
    for (int occurrence = 1; occurrence <= kDocs + 1; ++occurrence) {
      TempDir tmp(std::string("matrix-") +
                  std::to_string(&seam - kSeams) + "-" +
                  std::to_string(occurrence));
      ShardRouterConfig cfg;
      cfg.data_dir = tmp.path.string();
      std::map<std::string, std::string> expected;
      bool crashed = false;
      {
        ShardRouter router(shard_ids(3), cfg);
        for (int i = 0; i < kDocs; ++i) {
          const std::string doc = "doc" + std::to_string(i);
          ASSERT_TRUE(create_doc(router, doc).ok());
          ASSERT_TRUE(save_doc(router, doc, "m-" + doc).ok());
          expected[doc] = "m-" + doc;
        }
        CrashPoints::arm(seam, occurrence);
        try {
          router.remove_shard("s0");
        } catch (const CrashError&) {
          crashed = true;
        }
        CrashPoints::disarm();
      }
      if (!crashed && occurrence > 1) break;  // seam exhausted for this drain
      if (crashed) ++crashes;

      ShardRouter reborn(shard_ids(3), cfg);
      for (const auto& [doc, content] : expected) {
        ASSERT_EQ(reborn.holders(doc).size(), 1u)
            << doc << " after crash at " << seam << "#" << occurrence;
        EXPECT_EQ(reborn.raw_content(doc).value_or(""), content)
            << doc << " diverged after crash at " << seam << "#" << occurrence;
      }
      EXPECT_EQ(reborn.document_count(), expected.size())
          << "document count wrong after crash at " << seam << "#"
          << occurrence;
    }
  }
  EXPECT_GE(crashes, 5u) << "the matrix should actually fire every seam";
}

// A refused adoption push must never delete the stray copy: when the ring
// owner's doc sits behind the quarantine wall (and the stray payload fails
// container validation), the stray file is the only good durable copy —
// recovery keeps it and retries on the next boot instead of losing data.
TEST(ShardRouterTest, RecoveryKeepsStrayCopyWhenAdoptionPushIsRefused) {
  TempDir tmp("straykeep");
  ShardRouterConfig cfg;
  cfg.data_dir = tmp.path.string();
  {
    ShardRouter router(shard_ids(1), cfg);
    ASSERT_TRUE(create_doc(router, "d").ok());
    ASSERT_TRUE(save_doc(router, "d", "old-owner-copy").ok());
  }
  // Quarantine the owner's copy durably (scrub would do this on rot) and
  // plant a stray shard directory holding the doc at a higher revision —
  // the shape a crash between drain-copy and cutover leaves behind.
  FileStore(tmp.path.string() + "/shard-s0").set_quarantined("d", true);
  FileStore(tmp.path.string() + "/shard-zz")
      .put("d", Store::Record{"newer-stray-copy", 99});

  {
    ShardRouter reborn(shard_ids(1), cfg);
    // The push was refused by the quarantine wall; the stray must survive.
    FileStore stray(tmp.path.string() + "/shard-zz");
    ASSERT_TRUE(stray.get("d").has_value())
        << "refused adoption deleted the only durable copy";
    EXPECT_EQ(stray.get("d")->content, "newer-stray-copy");
  }

  // Once the wall lifts, the next recovery adopts and drops the stray.
  FileStore(tmp.path.string() + "/shard-s0").set_quarantined("d", false);
  ShardRouter healed(shard_ids(1), cfg);
  EXPECT_EQ(healed.raw_content("d").value_or(""), "newer-stray-copy");
  EXPECT_FALSE(FileStore(tmp.path.string() + "/shard-zz").get("d").has_value());
  EXPECT_GE(healed.counters().strays_dropped, 1u);
}

// -------------------------------------------------------------- tenants --

TEST(TenantQuotaTest, DocCountQuotaRejects507WithRetryAfter) {
  ShardRouter router(shard_ids(2), {});
  router.tenants().set_quota("alice", TenantQuota{.max_docs = 2});

  EXPECT_TRUE(create_doc(router, "a1", "alice").ok());
  EXPECT_TRUE(create_doc(router, "a2", "alice").ok());
  const net::HttpResponse refused = create_doc(router, "a3", "alice");
  EXPECT_EQ(refused.status, 507);
  EXPECT_TRUE(refused.headers.get("Retry-After").has_value());
  // Re-creating an owned doc is not a new doc; other tenants unaffected.
  EXPECT_TRUE(create_doc(router, "a1", "alice").ok());
  EXPECT_TRUE(create_doc(router, "b1", "bob").ok());
  EXPECT_EQ(router.counters().quota_rejections, 1u);
}

TEST(TenantQuotaTest, ByteQuotaRejectsOversizedSaveAnddelete_Decrements) {
  ShardRouter router(shard_ids(2), {});
  router.tenants().set_quota("alice", TenantQuota{.max_bytes = 100});

  ASSERT_TRUE(create_doc(router, "a1", "alice").ok());
  ASSERT_TRUE(save_doc(router, "a1", std::string(60, 'x'), "alice").ok());
  EXPECT_EQ(router.tenants().usage("alice").bytes, 60u);

  // A second doc pushing the projected total over 100 bytes → 507.
  ASSERT_TRUE(create_doc(router, "a2", "alice").ok());
  const net::HttpResponse refused =
      save_doc(router, "a2", std::string(50, 'y'), "alice");
  EXPECT_EQ(refused.status, 507);
  EXPECT_TRUE(refused.headers.get("Retry-After").has_value());
  // Growing an EXISTING doc projects against its current charge, not on
  // top of it: 60 → 90 fits inside 100.
  EXPECT_TRUE(save_doc(router, "a1", std::string(90, 'x'), "alice").ok());
  EXPECT_EQ(router.tenants().usage("alice").bytes, 90u);

  // Deleting the doc releases the charge; the refused save now fits.
  ASSERT_TRUE(delete_doc(router, "a1", "alice").ok());
  EXPECT_EQ(router.tenants().usage("alice").bytes, 0u);
  EXPECT_EQ(router.tenants().usage("alice").docs, 1u);  // a2 remains
  EXPECT_TRUE(save_doc(router, "a2", std::string(50, 'y'), "alice").ok());
}

TEST(TenantQuotaTest, CollaboratorWritesBillTheOwner) {
  ShardRouter router(shard_ids(2), {});
  ASSERT_TRUE(create_doc(router, "shared", "alice").ok());
  ASSERT_TRUE(save_doc(router, "shared", std::string(40, 'z'), "bob").ok());
  EXPECT_EQ(router.tenants().usage("alice").bytes, 40u);
  EXPECT_EQ(router.tenants().usage("bob").bytes, 0u);
  EXPECT_EQ(router.tenants().owner_tenant("shared").value_or(""), "alice");
}

TEST(TenantQuotaTest, MissingHeaderBillsTheAnonTenant) {
  ShardRouter router(shard_ids(2), {});
  ASSERT_TRUE(create_doc(router, "nohdr").ok());
  ASSERT_TRUE(save_doc(router, "nohdr", "abc").ok());
  EXPECT_EQ(router.tenants().usage(kAnonTenant).docs, 1u);
  EXPECT_EQ(router.tenants().usage(kAnonTenant).bytes, 3u);
}

TEST(TenantQuotaTest, AccountingSurvivesProviderRestart) {
  TempDir tmp("tenants");
  ShardRouterConfig cfg;
  cfg.data_dir = tmp.path.string();
  {
    ShardRouter router(shard_ids(2), cfg);
    router.tenants().set_quota("alice", TenantQuota{.max_docs = 2});
    ASSERT_TRUE(create_doc(router, "a1", "alice").ok());
    ASSERT_TRUE(save_doc(router, "a1", std::string(33, 'q'), "alice").ok());
    ASSERT_TRUE(create_doc(router, "a2", "alice").ok());
  }
  ShardRouter reborn(shard_ids(2), cfg);
  // Usage is rebuilt from the per-doc ownership records; quotas are policy
  // (re-applied by the operator at boot, like the shard list).
  reborn.tenants().set_quota("alice", TenantQuota{.max_docs = 2});
  EXPECT_EQ(reborn.tenants().usage("alice").docs, 2u);
  EXPECT_EQ(reborn.tenants().usage("alice").bytes, 33u);
  EXPECT_EQ(reborn.tenants().owner_tenant("a1").value_or(""), "alice");
  EXPECT_EQ(create_doc(reborn, "a3", "alice").status, 507);
}

// A rotted ownership record (bad form encoding, missing tenant field,
// non-numeric or overflowing bytes=) must be skipped and counted at boot,
// not take the accounts layer down; the intact records still restore.
TEST(TenantQuotaTest, RestoreSkipsRottedRecordsAndKeepsTheRest) {
  TempDir tmp("tenant-rot");
  const std::string dir = tmp.path.string();
  {
    TenantAccounts accounts;
    accounts.enable_persistence(dir);
    accounts.charge("alice", "good1", 10);
    accounts.charge("bob", "good2", 20);
  }
  {
    // Plant rot next to the good records, one per failure class.
    FileStore raw(dir);
    raw.put("rot-escape", {"tenant=%zz&bytes=5", 0});
    raw.put("rot-no-tenant", {"bytes=5", 0});
    raw.put("rot-nan", {"tenant=carol&bytes=banana", 0});
    raw.put("rot-overflow", {"tenant=carol&bytes=99999999999999999999999", 0});
  }
  TenantAccounts reborn;
  reborn.enable_persistence(dir);
  EXPECT_EQ(reborn.counters().restore_skipped, 4u);
  EXPECT_EQ(reborn.usage("alice").docs, 1u);
  EXPECT_EQ(reborn.usage("alice").bytes, 10u);
  EXPECT_EQ(reborn.usage("bob").bytes, 20u);
  EXPECT_EQ(reborn.owner_tenant("good2").value_or(""), "bob");
  // The skipped documents are simply unbilled, not resurrected.
  EXPECT_FALSE(reborn.owner_tenant("rot-nan").has_value());
  EXPECT_EQ(reborn.usage("carol").docs, 0u);
}

TEST(TenantQuotaTest, OverBudgetTenantHasDeltasRefusedUpFront) {
  ShardRouter router(shard_ids(2), {});
  ASSERT_TRUE(create_doc(router, "a1", "alice").ok());
  ASSERT_TRUE(save_doc(router, "a1", std::string(80, 'x'), "alice").ok());
  // Quota imposed AFTER the usage accrued: alice is now over budget, so
  // even the optimistically-admitted delta path refuses her up front.
  router.tenants().set_quota("alice", TenantQuota{.max_bytes = 50});
  FormData f;
  f.add("session", "1");
  f.add("rev", "1");
  f.add("delta", "=80\t+x");
  const net::HttpResponse refused =
      router.handle(doc_request("a1", f, "alice"));
  EXPECT_EQ(refused.status, 507);
}

TEST(TenantQuotaTest, QuotaChecksRideTheSyncVerb) {
  ShardRouter router(shard_ids(2), {});
  router.tenants().set_quota("alice", TenantQuota{.max_bytes = 10});
  ASSERT_TRUE(create_doc(router, "a1", "alice").ok());
  FormData f;
  f.add("cmd", "sync");
  f.add("rev", "5");
  f.add("content", std::string(64, 'c'));
  EXPECT_EQ(router.handle(doc_request("a1", f, "alice")).status, 507);
}

// cmd=sync creates the target document when absent (the server adopts the
// push wholesale), so it must pass the same doc-count admission as
// cmd=create — otherwise a tenant at max_docs mints documents for free.
TEST(TenantQuotaTest, SyncCannotBypassDocCountQuota) {
  ShardRouter router(shard_ids(2), {});
  router.tenants().set_quota("alice", TenantQuota{.max_docs = 1});
  ASSERT_TRUE(create_doc(router, "a1", "alice").ok());

  FormData f;
  f.add("cmd", "sync");
  f.add("rev", "7");
  f.add("content", "pushed");
  const net::HttpResponse refused = router.handle(doc_request("a2", f, "alice"));
  EXPECT_EQ(refused.status, 507);
  EXPECT_TRUE(refused.headers.get("Retry-After").has_value());
  EXPECT_EQ(router.tenants().usage("alice").docs, 1u)
      << "the refused sync must not be charged";

  // Syncing a document the tenant already owns is not a new document.
  EXPECT_TRUE(router.handle(doc_request("a1", f, "alice")).ok());
  // And a collaborator at their own doc-count ceiling can still sync an
  // EXISTING doc owned by someone else (the owner keeps paying).
  router.tenants().set_quota("bob", TenantQuota{.max_docs = 1});
  ASSERT_TRUE(create_doc(router, "b1", "bob").ok());
  EXPECT_TRUE(router.handle(doc_request("a1", f, "bob")).ok());
}

// ------------------------------------------------- per-shard admission --

TEST(ShardRouterTest, AdmissionBudgetsArePerShard) {
  std::uint64_t now = 0;
  ShardRouterConfig cfg;
  cfg.admission = net::AdmissionConfig{.rate_per_sec = 0.001, .burst = 3.0};
  cfg.admission_now = [&now] { return now; };
  ShardRouter router(shard_ids(2), cfg);

  // Two docs on different shards, same client: exhausting one shard's
  // bucket must not starve the other (independent controllers).
  std::string on_s0, on_s1;
  for (int i = 0; i < 64 && (on_s0.empty() || on_s1.empty()); ++i) {
    const std::string doc = "doc" + std::to_string(i);
    (router.shard_for(doc) == "s0" ? on_s0 : on_s1) = doc;
  }
  ASSERT_FALSE(on_s0.empty());
  ASSERT_FALSE(on_s1.empty());
  ASSERT_TRUE(create_doc(router, on_s0, "alice").ok());

  net::HttpResponse last;
  for (int i = 0; i < 8; ++i) last = open_doc(router, on_s0);
  EXPECT_EQ(last.status, 503) << "s0's bucket should be empty";
  EXPECT_TRUE(create_doc(router, on_s1, "alice").ok())
      << "s1 has its own untouched budget";
}

// ------------------------------------------------ lifecycle vs traffic --

// Live traffic racing drain/join cycles: a request that routed to a shard
// just before remove_shard erased it must keep a valid reference (the
// shared-ownership contract), never touch freed state. Run under
// TSan/ASan this is the use-after-free regression; under a plain build it
// still checks that every doc survives the churn with exactly one owner.
TEST(ShardRouterTest, ConcurrentTrafficSurvivesDrainAndJoinCycles) {
  ShardRouter router(shard_ids(3), {});
  constexpr int kDocs = 24;
  for (int i = 0; i < kDocs; ++i) {
    const std::string doc = "doc" + std::to_string(i);
    ASSERT_TRUE(create_doc(router, doc).ok());
    ASSERT_TRUE(save_doc(router, doc, "orig-" + doc).ok());
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&router, t, &stop] {
      // Writers and readers hammer the full doc set; 503s (handoff, down
      // shard) and 404s (read raced a cleanup) are expected under churn —
      // the invariants are checked at quiesce.
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const std::string doc = "doc" + std::to_string(i % kDocs);
        if (t % 2 == 0) {
          save_doc(router, doc, "w-" + doc);
        } else {
          open_doc(router, doc);
        }
      }
    });
  }
  for (int cycle = 0; cycle < 8; ++cycle) {
    router.remove_shard("s1");
    router.add_shard("s1");
  }
  stop.store(true);
  for (std::thread& th : clients) th.join();

  for (int i = 0; i < kDocs; ++i) {
    const std::string doc = "doc" + std::to_string(i);
    ASSERT_EQ(router.holders(doc).size(), 1u) << doc << " after churn";
    const std::string content = router.raw_content(doc).value_or("");
    EXPECT_TRUE(content == "orig-" + doc || content == "w-" + doc)
        << doc << " holds unexpected content: " << content;
  }
}

// ----------------------------------------------- mediator transparency --

TEST(ShardRouterTest, MediatedEditingThroughTheRouterBillsTheTenant) {
  ShardRouter router(shard_ids(3), {});
  net::SimClock clock;
  net::LoopbackTransport transport(
      [&router](const net::HttpRequest& r) { return router.handle(r); },
      &clock, net::LatencyModel{}, crypto::CtrDrbg::from_seed(77));
  extension::MediatorConfig mc;
  mc.password = "pw";
  mc.scheme.mode = enc::Mode::kRpc;
  mc.scheme.kdf_iterations = 5;
  mc.rng_factory = extension::seeded_rng_factory(78);
  mc.client_id = "alice";
  extension::GDocsMediator mediator(&transport, std::move(mc), &clock);

  const std::string target = "/Doc?docID=meddoc";
  FormData create;
  create.add("cmd", "create");
  ASSERT_TRUE(mediator
                  .round_trip(net::HttpRequest::post_form(target,
                                                          create.encode()))
                  .ok());
  FormData save;
  save.add("session", "1");
  save.add("rev", "0");
  save.add("docContents", "the secret plaintext");
  ASSERT_TRUE(
      mediator.round_trip(net::HttpRequest::post_form(target, save.encode()))
          .ok());

  // The tenant ledger sees alice; the stored bytes are ciphertext.
  EXPECT_EQ(router.tenants().owner_tenant("meddoc").value_or(""), "alice");
  EXPECT_EQ(router.tenants().usage("alice").docs, 1u);
  EXPECT_GT(router.tenants().usage("alice").bytes, 0u);
  const std::string stored = router.raw_content("meddoc").value_or("");
  EXPECT_EQ(stored.find("secret"), std::string::npos);

  // And the round trip decrypts back through the mediator.
  FormData open;
  open.add("cmd", "open");
  const net::HttpResponse resp =
      mediator.round_trip(net::HttpRequest::post_form(target, open.encode()));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(FormData::parse(resp.body).get("content").value_or(""),
            "the secret plaintext");
}

// Anchored cdelta saves racing a migration: a delta full save in flight
// when the document's shard starts draining must hit the handoff fence
// (503) and land EXACTLY ONCE after the router reconciles — never zero
// times (lost write) and never twice (the fenced attempt plus its replay).
TEST(ShardRouterTest, BlockDeltaSaveAcrossDrainLandsExactlyOnce) {
  TempDir tmp("bdeltamig");
  ShardRouterConfig cfg;
  cfg.data_dir = tmp.path.string();
  cfg.handoff_retry_after_s = 1;
  auto router = std::make_unique<ShardRouter>(shard_ids(3), cfg);
  net::SimClock clock;
  net::LoopbackTransport transport(
      [&router](const net::HttpRequest& r) { return router->handle(r); },
      &clock, net::LatencyModel{}, crypto::CtrDrbg::from_seed(91));
  extension::MediatorConfig mc;
  mc.password = "pw";
  mc.scheme.mode = enc::Mode::kRpc;
  mc.scheme.kdf_iterations = 5;
  mc.rng_factory = extension::seeded_rng_factory(92);
  mc.client_id = "alice";
  mc.journal_dir = (tmp.path / "journal").string();
  mc.delta_full_saves = true;
  extension::GDocsMediator mediator(&transport, std::move(mc), &clock);

  const std::string target = "/Doc?docID=migdoc";
  auto med_save = [&](std::uint64_t rev, const std::string& text) {
    FormData save;
    save.add("session", "1");
    save.add("rev", std::to_string(rev));
    save.add("docContents", text);
    return mediator.round_trip(net::HttpRequest::post_form(target,
                                                           save.encode()));
  };
  FormData create;
  create.add("cmd", "create");
  ASSERT_TRUE(mediator
                  .round_trip(net::HttpRequest::post_form(target,
                                                          create.encode()))
                  .ok());
  const std::string base = std::string(600, 'a') + " stable tail";
  ASSERT_TRUE(med_save(0, base).ok());  // plain full: nothing to anchor on
  ASSERT_TRUE(med_save(1, "v2 " + base).ok());
  EXPECT_GE(mediator.counters().delta_full_saves, 1u)
      << "the second save should ride the anchored cdelta";

  const std::string owner = router->shard_for("migdoc");
  const std::uint64_t rev_before =
      router->shard_server(owner).table().find("migdoc")->rev;

  // Open the handoff window deterministically: crash the drain of the
  // doc's owner before cutover, leaving the fence up.
  CrashPoints::arm("router.migrate.before_cutover", 1);
  EXPECT_THROW(router->remove_shard(owner), CrashError);
  CrashPoints::disarm();

  const std::string final_text = "v3 v2 " + base;
  const net::HttpResponse fenced = med_save(rev_before, final_text);
  EXPECT_EQ(fenced.status, 503);  // fenced: refused, not applied
  EXPECT_GE(router->counters().handoff_rejections, 1u);
  EXPECT_EQ(router->shard_server(owner).table().find("migdoc")->rev,
            rev_before)
      << "a fenced save must not have touched the draining shard";

  // Provider reboot on the same data_dir reconciles the torn migration:
  // the document ends up owned exactly once.
  router = std::make_unique<ShardRouter>(shard_ids(3), cfg);
  ASSERT_EQ(router->holders("migdoc").size(), 1u);

  // The retry lands exactly once. Its cdelta anchor (the mediator's
  // ciphertext mirror) ran ahead during the fenced attempt, so the server
  // answers 412 and the documented fallback resends the plain full save —
  // the fence must degrade the encoding, never duplicate the write.
  ASSERT_TRUE(med_save(rev_before, final_text).ok());

  FormData open;
  open.add("cmd", "open");
  const net::HttpResponse reopened =
      mediator.round_trip(net::HttpRequest::post_form(target, open.encode()));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(FormData::parse(reopened.body).get("content").value_or(""),
            final_text);
  const std::string after_owner = router->shard_for("migdoc");
  EXPECT_EQ(router->shard_server(after_owner).table().find("migdoc")->rev,
            rev_before + 1)
      << "the in-flight save must land exactly once across the migration";
}

}  // namespace
}  // namespace privedit::cloud
