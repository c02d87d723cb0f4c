// Storage integrity subsystem tests: typed storage errors, the FaultyStore
// disk-fault decorator, check_store classification, the online scrubber,
// quarantine lifecycle, fsck's replica-driven repair, and the crashpoint x
// disk-fault matrix (every FileStore crash seam re-run under injected
// bit-rot / torn-write modes).
//
// Soak the randomized rounds with PRIVEDIT_FSCK_ITERS=n
// (tools/check.sh fsck).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "privedit/cloud/faulty_store.hpp"
#include "privedit/cloud/file_store.hpp"
#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/cloud/store_check.hpp"
#include "privedit/crypto/sha256.hpp"
#include "privedit/enc/container.hpp"
#include "privedit/extension/fsck.hpp"
#include "privedit/extension/journal.hpp"
#include "privedit/extension/session.hpp"
#include "privedit/net/http.hpp"
#include "privedit/util/crashpoint.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/hex.hpp"
#include "privedit/util/random.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit {
namespace {

namespace fs = std::filesystem;

std::size_t soak_iters() {
  const char* env = std::getenv("PRIVEDIT_FSCK_ITERS");
  if (env == nullptr) return 1;
  const long v = std::atol(env);
  return v > 1 ? static_cast<std::size_t>(v) : 1;
}

class StoreIntegrityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("privedit_integrity_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name()))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override {
    CrashPoints::disarm();
    fs::remove_all(root_);
  }

  std::string dir(const std::string& name) const {
    const std::string d = root_ + "/" + name;
    fs::create_directories(d);
    return d;
  }

  std::string root_;
};

constexpr const char* kPassword = "integrity pw";

/// A small real container (cheap KDF) around `text`.
std::string make_container(const std::string& text, std::uint64_t seed = 7) {
  enc::SchemeConfig config;
  config.mode = enc::Mode::kRpc;
  config.block_chars = 4;
  config.kdf_iterations = 4;
  extension::DocumentSession session = extension::DocumentSession::create_new(
      kPassword, config, extension::seeded_rng_factory(seed));
  return session.encrypt_full(text);
}

cloud::CheckConfig deep_config(std::map<std::string, cloud::Anchor> anchors = {}) {
  cloud::CheckConfig config;
  config.anchors = std::move(anchors);
  config.deep_validate = [](const std::string& content) {
    try {
      extension::DocumentSession::open(kPassword, content,
                                       extension::seeded_rng_factory(0));
      return true;
    } catch (const Error&) {
      return false;
    }
  };
  return config;
}

/// Swaps one char late in the container for another codec-alphabet char, so
/// the framing still parses but authentication fails.
std::string flip_unit_char(std::string container) {
  const std::size_t at = container.size() - 2;
  container[at] = container[at] == 'A' ? 'B' : 'A';
  return container;
}

void clobber_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Writes a journal whose last-acked state is (rev, hash(content)) — the
/// anchor fsck verifies stored state against.
void write_anchor(const std::string& journal_dir, const std::string& doc_id,
                  std::uint64_t rev, const std::string& content) {
  const std::string path =
      journal_dir + "/" + hex_encode(as_bytes(doc_id)) + ".wal";
  extension::EditJournal journal(path);
  const std::string checksum = crypto::content_hash16(content);
  journal.append_pending({rev, /*full_save=*/true, checksum, content});
  journal.ack_front(rev, checksum);
}

net::HttpResponse post(cloud::GDocsServer& server, const std::string& doc_id,
                       const FormData& form) {
  return server.handle(net::HttpRequest::post_form(
      "/Doc?docID=" + percent_encode(doc_id), form.encode()));
}

net::HttpResponse sync_push(cloud::GDocsServer& server,
                            const std::string& doc_id, std::uint64_t rev,
                            const std::string& content) {
  FormData form;
  form.add("cmd", "sync");
  form.add("session", "anti-entropy");
  form.add("rev", std::to_string(rev));
  form.add("content", content);
  return post(server, doc_id, form);
}

std::unique_ptr<RandomSource> rng(std::uint64_t seed) {
  return std::make_unique<Xoshiro256>(seed);
}

// ------------------------------------------------------- StorageError --

TEST(StorageErrorTest, CarriesErrnoAndClassifiesTransience) {
  const StorageError enospc("disk full", ENOSPC);
  EXPECT_EQ(enospc.code(), ErrorCode::kStorage);
  EXPECT_EQ(enospc.sys_errno(), ENOSPC);
  EXPECT_TRUE(enospc.transient());
  EXPECT_NE(std::string(enospc.what()).find("disk full"), std::string::npos);

  EXPECT_TRUE(StorageError("quota", EDQUOT).transient());
  EXPECT_TRUE(StorageError("interrupted", EINTR).transient());
  EXPECT_FALSE(StorageError("media gone", EIO).transient());
  EXPECT_FALSE(StorageError("denied", EACCES).transient());
}

// -------------------------------------------------------- FaultyStore --

TEST_F(StoreIntegrityTest, FaultyStoreBitRotChangesExactlyOneContentByte) {
  cloud::FileStore inner(dir("s"));
  cloud::FaultyStore store(&inner, {}, rng(1));
  const cloud::Store::Record wanted{"pristine content", 4};
  store.force_next(cloud::StoreFault::kBitRot);
  store.put("d", wanted);
  EXPECT_EQ(store.counters().bit_rots, 1u);

  const auto stored = inner.get("d");
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->rev, wanted.rev);
  ASSERT_EQ(stored->content.size(), wanted.content.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < wanted.content.size(); ++i) {
    diffs += stored->content[i] != wanted.content[i];
  }
  EXPECT_EQ(diffs, 1u);
  // last_written() is the post-mutation record — the "attempted" state.
  ASSERT_TRUE(store.last_written().has_value());
  EXPECT_EQ(store.last_written()->second, *stored);
}

TEST_F(StoreIntegrityTest, FaultyStoreTornWriteStoresAPrefix) {
  cloud::FileStore inner(dir("s"));
  cloud::FaultyStore store(&inner, {}, rng(2));
  const std::string full = "0123456789abcdef";
  store.force_next(cloud::StoreFault::kTornWrite);
  store.put("d", {full, 9});
  EXPECT_EQ(store.counters().torn_writes, 1u);
  const auto stored = inner.get("d");
  ASSERT_TRUE(stored.has_value());
  EXPECT_LE(stored->content.size(), full.size());
  EXPECT_EQ(stored->content, full.substr(0, stored->content.size()));
  EXPECT_EQ(store.last_written()->second.content, stored->content);
}

TEST_F(StoreIntegrityTest, FaultyStoreIoErrorsLeaveOldRecordIntact) {
  cloud::FileStore inner(dir("s"));
  cloud::FaultyStore store(&inner, {}, rng(3));
  store.put("d", {"old", 1});

  store.force_next(cloud::StoreFault::kIoError);
  try {
    store.put("d", {"new", 2});
    FAIL() << "injected EIO did not throw";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.sys_errno(), EIO);
    EXPECT_FALSE(e.transient());
  }
  store.force_next(cloud::StoreFault::kEnospc);
  try {
    store.put("d", {"new", 2});
    FAIL() << "injected ENOSPC did not throw";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.sys_errno(), ENOSPC);
    EXPECT_TRUE(e.transient());
  }
  // A failed put writes nothing, so the store still checks clean.
  EXPECT_EQ(inner.get("d")->content, "old");
  EXPECT_TRUE(cloud::check_store(inner).store_clean());
}

TEST_F(StoreIntegrityTest, FaultyStoreRollbackAcksWithoutWriting) {
  cloud::FileStore inner(dir("s"));
  cloud::FaultyStore store(&inner, {}, rng(4));
  store.put("d", {"acked v1", 1});
  store.force_next(cloud::StoreFault::kRollback);
  store.put("d", {"acked v2 that never lands", 2});  // no throw: silent
  EXPECT_EQ(store.counters().rollbacks, 1u);
  EXPECT_EQ(inner.get("d")->rev, 1u);
  EXPECT_EQ(inner.get("d")->content, "acked v1");
}

TEST_F(StoreIntegrityTest, FaultyStoreLostEntryDropsTheDocument) {
  cloud::FileStore inner(dir("s"));
  cloud::FaultyStore store(&inner, {}, rng(5));
  store.force_next(cloud::StoreFault::kLostEntry);
  store.put("d", {"written then unlinked", 1});
  EXPECT_EQ(store.counters().lost_entries, 1u);
  EXPECT_FALSE(inner.get("d").has_value());
  EXPECT_TRUE(inner.list_doc_ids().empty());
}

TEST_F(StoreIntegrityTest, FaultyStoreReadRotLeavesAtRestBytesIntact) {
  cloud::FileStore inner(dir("s"));
  cloud::FaultyStore store(&inner, {}, rng(6));
  store.put("d", {"stable bytes on disk", 3});
  store.force_next(cloud::StoreFault::kReadRot);
  const auto rotted = store.get("d");
  ASSERT_TRUE(rotted.has_value());
  EXPECT_NE(rotted->content, "stable bytes on disk");
  // Only the returned copy rotted; the next read is clean again.
  EXPECT_EQ(store.get("d")->content, "stable bytes on disk");
  EXPECT_EQ(store.counters().read_rots, 1u);
}

TEST_F(StoreIntegrityTest, FaultyStoreFaultSequenceIsSeedDeterministic) {
  cloud::StoreFaultSpec spec;
  spec.bit_rot = 0.2;
  spec.torn_write = 0.15;
  spec.io_error = 0.1;
  spec.rollback = 0.1;
  spec.lost_entry = 0.05;

  auto run = [&](const std::string& d) {
    cloud::FileStore inner(d);
    cloud::FaultyStore store(&inner, spec, rng(99));
    for (int i = 0; i < 60; ++i) {
      try {
        store.put("doc" + std::to_string(i % 5),
                  {"content #" + std::to_string(i),
                   static_cast<std::uint64_t>(i + 1)});
      } catch (const StorageError&) {
        // injected EIO/ENOSPC — part of the sequence being compared
      }
    }
    return std::make_pair(store.counters(), inner.load_all());
  };
  const auto [counters_a, state_a] = run(dir("a"));
  const auto [counters_b, state_b] = run(dir("b"));
  EXPECT_EQ(counters_a.bit_rots, counters_b.bit_rots);
  EXPECT_EQ(counters_a.torn_writes, counters_b.torn_writes);
  EXPECT_EQ(counters_a.io_errors, counters_b.io_errors);
  EXPECT_EQ(counters_a.rollbacks, counters_b.rollbacks);
  EXPECT_EQ(counters_a.lost_entries, counters_b.lost_entries);
  EXPECT_GT(counters_a.bit_rots + counters_a.torn_writes +
                counters_a.io_errors + counters_a.rollbacks +
                counters_a.lost_entries,
            0u);
  EXPECT_EQ(state_a, state_b) << "same seed, same faults, different stores";
}

TEST_F(StoreIntegrityTest, CorruptAtRestRotsTheStoredRecord) {
  cloud::FileStore inner(dir("s"));
  cloud::FaultyStore store(&inner, {}, rng(8));
  store.put("d", {"bytes that will rot between writes", 2});
  store.corrupt_at_rest("d", 11);
  const auto record = inner.get("d");
  ASSERT_TRUE(record.has_value());
  EXPECT_NE(record->content, "bytes that will rot between writes");
  EXPECT_EQ(record->content.size(),
            std::string("bytes that will rot between writes").size());
}

// -------------------------------------------------------- check_store --

TEST_F(StoreIntegrityTest, CheckStoreClassifiesEveryFindingKind) {
  const std::string d = dir("s");
  cloud::FileStore store(d);

  const std::string healthy = make_container("healthy text", 1);
  const std::string old_state = make_container("older acked state", 2);
  const std::string forked = make_container("divergent same-rev state", 3);

  store.put("clean", {healthy, 3});
  store.put("ahead", {healthy, 9});            // server legitimately ahead
  store.put("unreadable", {healthy, 3});
  store.put("torn", {healthy, 3});
  store.put("flipped", {healthy, 3});
  store.put("rolledback", {old_state, 2});     // anchor says rev 3
  store.put("forked", {forked, 3});            // anchor checksum differs
  clobber_file(store.path_for("unreadable"), "no newline no rev line");
  // Truncate mid-unit (prefix + 1.x units) so the framing walk must fail.
  const enc::ContainerHeader header = enc::ContainerReader(healthy).header();
  clobber_file(store.path_for("torn"),
               "3\n" + healthy.substr(0, header.prefix_chars() +
                                             header.unit_width() + 1));

  auto config = deep_config({
      {"clean", {3, crypto::content_hash16(healthy)}},
      {"ahead", {3, crypto::content_hash16(healthy)}},
      {"rolledback", {3, crypto::content_hash16(healthy)}},
      {"forked", {3, crypto::content_hash16(healthy)}},
      {"ghost", {5, crypto::content_hash16(healthy)}},
  });
  // The in-alphabet flip parses but fails authenticated decryption.
  store.put("flipped", {flip_unit_char(healthy), 3});

  const cloud::CheckReport report = cloud::check_store(store, config);
  EXPECT_EQ(report.count(cloud::FindingKind::kUnreadableRecord), 1u);
  EXPECT_EQ(report.count(cloud::FindingKind::kContainerCorrupt), 1u);
  EXPECT_EQ(report.count(cloud::FindingKind::kDecryptFailed), 1u);
  EXPECT_EQ(report.count(cloud::FindingKind::kRollback), 1u);
  EXPECT_EQ(report.count(cloud::FindingKind::kFork), 1u);
  EXPECT_EQ(report.count(cloud::FindingKind::kMissing), 1u);
  EXPECT_EQ(report.clean, 2u);  // "clean" and "ahead"
  EXPECT_FALSE(report.store_clean());
  const std::set<std::string> dirty = report.dirty_docs();
  EXPECT_FALSE(dirty.contains("clean"));
  EXPECT_FALSE(dirty.contains("ahead"));
  EXPECT_TRUE(dirty.contains("ghost"));
}

TEST_F(StoreIntegrityTest, CheckRecordTreatsOpaqueContentAsStructurallyClean) {
  // Non-container content gets no structural findings (the store may hold
  // plaintext docs in unencrypted deployments); anchors still apply.
  std::vector<cloud::Finding> findings;
  EXPECT_TRUE(cloud::check_record("d", {"just plain text", 1},
                                  cloud::CheckConfig{}, &findings));
  EXPECT_TRUE(findings.empty());

  cloud::CheckConfig anchored;
  anchored.anchors["d"] = {2, crypto::content_hash16("acked")};
  EXPECT_FALSE(cloud::check_record("d", {"just plain text", 1}, anchored,
                                   &findings));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, cloud::FindingKind::kRollback);
}

// --------------------------------------------- quarantine lifecycle --

TEST_F(StoreIntegrityTest, QuarantineSurvivesRestartGatesWritesAndLifts) {
  const std::string d = dir("s");
  const std::string good = make_container("quarantine lifecycle", 1);
  {
    cloud::GDocsServer server;
    server.enable_persistence(d);
    EXPECT_TRUE(sync_push(server, "q", 3, good).ok());
    server.quarantine("q");
  }

  cloud::GDocsServer reborn;
  reborn.enable_persistence(d);  // adopts the durable .quar marker
  EXPECT_TRUE(reborn.is_quarantined("q"));

  // Reads succeed but carry the damage flag.
  FormData open_form;
  open_form.add("cmd", "open");
  const net::HttpResponse opened = post(reborn, "q", open_form);
  EXPECT_TRUE(opened.ok());
  EXPECT_EQ(opened.headers.get("X-Privedit-Quarantine").value_or(""), "1");

  // Ordinary writes are refused: no edits build on rot.
  FormData save;
  save.add("session", "1");
  save.add("rev", "3");
  save.add("docContents", "overwrite attempt");
  EXPECT_EQ(post(reborn, "q", save).status, 503);
  FormData create;
  create.add("cmd", "create");
  EXPECT_EQ(post(reborn, "q", create).status, 503);

  // A sync push that is not a valid container cannot lift the quarantine —
  // a damaged replica must not "repair" its peers with more damage.
  EXPECT_EQ(sync_push(reborn, "q", 4, "plaintext garbage").status, 503);
  EXPECT_TRUE(reborn.is_quarantined("q"));
  EXPECT_GE(reborn.counters().quarantine_write_rejections, 3u);

  // A container-validating sync is the one exit, atomically lifting it.
  EXPECT_TRUE(sync_push(reborn, "q", 4, good).ok());
  EXPECT_FALSE(reborn.is_quarantined("q"));
  EXPECT_EQ(reborn.counters().quarantine_repairs, 1u);
  EXPECT_TRUE(cloud::FileStore(d).quarantined().empty());  // marker gone
  EXPECT_FALSE(post(reborn, "q", open_form)
                   .headers.contains("X-Privedit-Quarantine"));
}

TEST_F(StoreIntegrityTest, BootQuarantinesUnreadableRecordsInsteadOfDying) {
  const std::string d = dir("s");
  {
    cloud::FileStore store(d);
    store.put("fine", {"2\ncontent", 2});
    store.put("rotten", {"x", 1});
    clobber_file(store.path_for("rotten"), "not a rev line");
  }
  cloud::GDocsServer server;
  server.enable_persistence(d);
  EXPECT_EQ(server.counters().load_quarantined, 1u);
  EXPECT_TRUE(server.is_quarantined("rotten"));
  EXPECT_FALSE(server.is_quarantined("fine"));
  EXPECT_EQ(server.document_count(), 1u);
  // The rotten record stays on disk as repair evidence.
  EXPECT_THROW(cloud::FileStore(d).get("rotten"), ParseError);
}

// ------------------------------------------------------------ scrubber --

TEST_F(StoreIntegrityTest, ScrubRepairsDiskRotFromAuthoritativeMemory) {
  const std::string d = dir("s");
  cloud::GDocsServer server;
  server.enable_persistence(d);
  const std::string good = make_container("scrub me", 1);
  ASSERT_TRUE(sync_push(server, "a", 1, good).ok());
  ASSERT_TRUE(sync_push(server, "b", 1, good).ok());
  ASSERT_TRUE(sync_push(server, "c", 1, good).ok());

  // Rot the disk behind the running server's back: one unreadable record,
  // one silently diverged record, one lost directory entry.
  cloud::FileStore raw(d);
  clobber_file(raw.path_for("a"), "garbage without a rev line");
  clobber_file(raw.path_for("b"), "1\n" + flip_unit_char(good));
  fs::remove(raw.path_for("c"));

  cloud::GDocsServer::ScrubConfig scrub;
  scrub.docs_per_cycle = 16;
  server.enable_scrub(scrub);
  EXPECT_TRUE(server.scrub_step());  // one step covers the whole corpus

  const auto& c = server.scrub_counters();
  EXPECT_EQ(c.cycles, 1u);
  EXPECT_EQ(c.unreadable_records, 1u);
  EXPECT_EQ(c.store_mismatches, 2u);
  EXPECT_EQ(c.repaired_from_memory, 3u);
  EXPECT_EQ(c.quarantined, 0u);  // memory was healthy throughout
  for (const char* id : {"a", "b", "c"}) {
    const auto record = raw.get(id);
    ASSERT_TRUE(record.has_value()) << id;
    EXPECT_EQ(record->content, good) << id;
  }
  // A second pass finds nothing left to repair.
  EXPECT_TRUE(server.scrub_step());
  EXPECT_EQ(server.scrub_counters().repaired_from_memory, 3u);
  EXPECT_EQ(server.scrub_counters().clean, 3u);
}

TEST_F(StoreIntegrityTest, ScrubQuarantinesCorruptAuthoritativeCopy) {
  const std::string d = dir("s");
  cloud::GDocsServer server;
  server.enable_persistence(d);
  const std::string good = make_container("will rot in memory", 1);
  ASSERT_TRUE(sync_push(server, "m", 1, good).ok());
  // The authoritative in-memory copy itself is damaged (still container-
  // shaped, so the framing walk sees it): no better copy exists here.
  server.set_raw_content("m", good.substr(0, good.size() - 3));

  cloud::GDocsServer::ScrubConfig scrub;
  scrub.docs_per_cycle = 4;
  server.enable_scrub(scrub);
  server.scrub_step();
  EXPECT_EQ(server.scrub_counters().container_corrupt, 1u);
  EXPECT_EQ(server.scrub_counters().quarantined, 1u);
  EXPECT_TRUE(server.is_quarantined("m"));
  // The marker is durable: visible to a plain FileStore immediately.
  EXPECT_TRUE(cloud::FileStore(d).quarantined().contains("m"));
}

TEST_F(StoreIntegrityTest, ScrubPiggybacksOnRequestsAtConfiguredInterval) {
  const std::string d = dir("s");
  cloud::GDocsServer server;
  server.enable_persistence(d);
  ASSERT_TRUE(sync_push(server, "a", 1, "opaque a").ok());
  ASSERT_TRUE(sync_push(server, "b", 1, "opaque b").ok());

  cloud::GDocsServer::ScrubConfig scrub;
  scrub.docs_per_cycle = 1;
  scrub.interval_requests = 3;
  server.enable_scrub(scrub);

  FormData open_form;
  open_form.add("cmd", "open");
  for (int i = 0; i < 12; ++i) (void)post(server, "a", open_form);
  // 12 requests / every 3rd = 4 steps of 1 doc each.
  EXPECT_EQ(server.scrub_counters().docs_scrubbed, 4u);
  EXPECT_GE(server.scrub_counters().cycles, 1u);
}

// ------------------------------------------------------ fsck end to end --

TEST_F(StoreIntegrityTest, FsckRepairsOneRottenReplicaByteIdentically) {
  // Three replicas, twenty documents; ~25% of replica 0's docs are hit
  // with the full damage mix (flip, rev-line rot, lost file, rollback),
  // and one document is damaged on EVERY replica (unrecoverable).
  const std::vector<std::string> dirs = {dir("r0"), dir("r1"), dir("r2")};
  const std::string journal_dir = dir("journal");

  std::map<std::string, std::string> content;
  for (int i = 0; i < 20; ++i) {
    const std::string id = "doc" + std::to_string(i);
    content[id] = make_container("document number " + std::to_string(i),
                                 static_cast<std::uint64_t>(100 + i));
  }
  for (const std::string& d : dirs) {
    cloud::FileStore store(d);
    for (const auto& [id, body] : content) store.put(id, {body, 3});
  }
  for (const auto& [id, body] : content) {
    write_anchor(journal_dir, id, 3, body);
  }

  {
    cloud::FileStore r0(dirs[0]);
    // doc1: in-alphabet flip (framing parses; caught by decrypt/anchor).
    r0.put("doc1", {flip_unit_char(content["doc1"]), 3});
    // doc2: clobbered rev line — unreadable record.
    clobber_file(r0.path_for("doc2"), "???");
    // doc3: lost directory entry.
    fs::remove(r0.path_for("doc3"));
    // doc4: rolled back to an older (well-formed!) state — only the
    // journal anchor can expose this one.
    r0.put("doc4", {make_container("stale pre-ack state", 999), 2});
    // doc5: damaged on all three replicas — no healthy copy anywhere.
    for (const std::string& d : dirs) {
      cloud::FileStore store(d);
      store.put("doc5", {flip_unit_char(content["doc5"]), 3});
    }
  }

  extension::FsckOptions options;
  options.password = kPassword;
  options.journal_dir = journal_dir;
  const extension::FsckResult result = extension::run_fsck(dirs, options);

  EXPECT_FALSE(result.clean_before());
  EXPECT_EQ(result.docs, 20u);
  EXPECT_EQ(result.dirty_docs, 5u);
  EXPECT_EQ(result.repaired_docs, 4u);
  ASSERT_EQ(result.unrecoverable, std::vector<std::string>{"doc5"});
  EXPECT_GE(result.syncs_pushed, 4u);
  EXPECT_TRUE(result.healthy_after());

  // Repairs are byte-identical to the healthy replicas' ciphertext.
  cloud::FileStore healed(dirs[0]);
  for (const char* id : {"doc1", "doc2", "doc3", "doc4"}) {
    const auto record = healed.get(id);
    ASSERT_TRUE(record.has_value()) << id;
    EXPECT_EQ(record->content, content[id]) << id;
    EXPECT_EQ(record->rev, 3u) << id;
  }
  // The unrecoverable doc is fenced on every replica...
  for (const std::string& d : dirs) {
    EXPECT_TRUE(cloud::FileStore(d).quarantined().contains("doc5")) << d;
  }
  // ...and a provider booting any replica refuses writes on it, so the
  // damaged ciphertext is never served as a base for new edits.
  cloud::GDocsServer server;
  server.enable_persistence(dirs[1]);
  FormData save;
  save.add("session", "1");
  save.add("rev", "3");
  save.add("docContents", "write onto rot");
  EXPECT_EQ(post(server, "doc5", save).status, 503);

  // A second pass finds nothing new: every remaining finding belongs to
  // the quarantined doc and everything else scrubs clean.
  const extension::FsckResult again = extension::run_fsck(dirs, options);
  EXPECT_TRUE(again.healthy_after());
  EXPECT_EQ(again.repaired_docs, 0u);
  for (const auto& store : again.stores) {
    for (const auto& finding : store.after.findings) {
      EXPECT_EQ(finding.doc_id, "doc5");
    }
  }
}

TEST_F(StoreIntegrityTest, FsckReportOnlyModeTouchesNothing) {
  const std::vector<std::string> dirs = {dir("r0"), dir("r1")};
  const std::string good = make_container("report only", 1);
  for (const std::string& d : dirs) {
    cloud::FileStore store(d);
    store.put("doc", {good, 2});
  }
  cloud::FileStore r0(dirs[0]);
  clobber_file(r0.path_for("doc"), "rotten");

  extension::FsckOptions options;
  options.password = kPassword;
  options.repair = false;
  const extension::FsckResult result = extension::run_fsck(dirs, options);
  EXPECT_FALSE(result.clean_before());
  EXPECT_EQ(result.dirty_docs, 1u);
  EXPECT_EQ(result.syncs_pushed, 0u);
  EXPECT_EQ(result.repaired_docs, 0u);
  EXPECT_TRUE(result.unrecoverable.empty());
  // Still rotten on disk, and no quarantine marker was planted.
  EXPECT_THROW(cloud::FileStore(dirs[0]).get("doc"), ParseError);
  EXPECT_TRUE(cloud::FileStore(dirs[0]).quarantined().empty());
  EXPECT_NE(extension::format_fsck_result(result).find("1 dirty"),
            std::string::npos);
}

TEST_F(StoreIntegrityTest, FsckSweepsOrphanTempsAndReportsThem) {
  const std::string d = dir("r0");
  {
    cloud::FileStore store(d);
    store.put("doc", {"1\nfine", 1});
  }
  std::ofstream(d + "/deadbeef.doc.tmp", std::ios::binary) << "torn half";
  const extension::FsckResult result = extension::run_fsck({d}, {});
  EXPECT_TRUE(result.clean_before());
  ASSERT_EQ(result.stores.size(), 1u);
  EXPECT_EQ(result.stores[0].orphan_tmps_swept, 1u);
  EXPECT_FALSE(fs::exists(d + "/deadbeef.doc.tmp"));
}

// -------------------------------------- crashpoint x disk-fault matrix --

TEST_F(StoreIntegrityTest, EveryPutCrashSeamRecoversUnderDiskFaults) {
  // Every crash seam in the durable-replace sequence, re-run under each
  // put-visible fault mode: after "power loss" + recovery sweep, the
  // store holds either the acked record or the (possibly faulted)
  // attempted record — never a third state — and check_store classifies
  // it without crashing.
  const std::vector<std::string> seams = {
      "file_store.put.created",      "file_store.put.torn",
      "file_store.put.before_fsync", "file_store.put.before_rename",
      "file_store.put.before_dirsync"};
  const std::vector<cloud::StoreFault> faults = {
      cloud::StoreFault::kNone, cloud::StoreFault::kBitRot,
      cloud::StoreFault::kTornWrite};

  const cloud::Store::Record acked{"acked stable state", 1};
  int case_no = 0;
  for (const std::string& seam : seams) {
    for (const cloud::StoreFault fault : faults) {
      const std::string d =
          dir("case" + std::to_string(case_no++));
      SCOPED_TRACE(seam + " x " + std::string(cloud::store_fault_name(fault)));

      std::optional<cloud::Store::Record> attempted;
      {
        cloud::FileStore inner(d);
        cloud::FaultyStore faulty(&inner, {}, rng(1000 + case_no));
        faulty.put("doc", acked);
        if (fault != cloud::StoreFault::kNone) faulty.force_next(fault);
        CrashPoints::arm(seam);
        EXPECT_THROW(
            faulty.put("doc", {"attempted replacement state", 2}),
            CrashError);
        CrashPoints::disarm();
        if (faulty.last_written()) attempted = faulty.last_written()->second;
      }

      // "Reboot": reopening sweeps any stale temp the crash left behind.
      cloud::FileStore recovered(d);
      const auto record = recovered.get("doc");
      ASSERT_TRUE(record.has_value());
      const bool is_acked = *record == acked;
      const bool is_attempt = attempted && *record == *attempted;
      EXPECT_TRUE(is_acked || is_attempt)
          << "recovered to a third state: rev " << record->rev << " '"
          << record->content << "'";
      for (const auto& entry : fs::directory_iterator(d)) {
        EXPECT_NE(entry.path().extension(), ".tmp");
      }
      // Opaque content + no anchors: recovery must always check clean.
      EXPECT_TRUE(cloud::check_store(recovered).store_clean());
    }
  }
}

TEST_F(StoreIntegrityTest, CrashDuringTmpSweepIsItselfRecoverable) {
  const std::string d = dir("s");
  {
    cloud::FileStore store(d);
    store.put("doc", {"durable", 1});
  }
  std::ofstream(d + "/aa.doc.tmp", std::ios::binary) << "torn one";
  std::ofstream(d + "/bb.doc.tmp", std::ios::binary) << "torn two";

  // Power loss during the recovery sweep itself...
  CrashPoints::arm("file_store.sweep");
  EXPECT_THROW(cloud::FileStore{d}, CrashError);
  CrashPoints::disarm();

  // ...must leave the directory loadable; the next open finishes the job.
  cloud::FileStore reopened(d);
  EXPECT_GE(reopened.tmp_swept(), 1u);
  EXPECT_FALSE(fs::exists(d + "/aa.doc.tmp"));
  EXPECT_FALSE(fs::exists(d + "/bb.doc.tmp"));
  EXPECT_EQ(reopened.get("doc")->content, "durable");
}

// ------------------------------------------------------------- soak --

TEST_F(StoreIntegrityTest, RandomizedCorruptionAlwaysFsckRepairable) {
  // PRIVEDIT_FSCK_ITERS scales the rounds (tools/check.sh fsck). Each
  // round corrupts a random subset of one replica through the FaultyStore
  // at-rest rot plus structural damage, then asserts fsck heals it.
  const std::size_t rounds = 2 * soak_iters();
  Xoshiro256 dice(0xf5ccULL);
  for (std::size_t round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::string tag = std::to_string(round);
    const std::vector<std::string> dirs = {
        dir("soak" + tag + "_r0"), dir("soak" + tag + "_r1"),
        dir("soak" + tag + "_r2")};
    const std::string journal_dir = dir("soak" + tag + "_journal");

    std::map<std::string, std::string> content;
    for (int i = 0; i < 6; ++i) {
      const std::string id = "d" + std::to_string(i);
      content[id] = make_container("soak doc " + std::to_string(i),
                                   dice.next_u64() % 1000);
    }
    for (const std::string& d : dirs) {
      cloud::FileStore store(d);
      for (const auto& [id, body] : content) store.put(id, {body, 5});
    }
    for (const auto& [id, body] : content) {
      write_anchor(journal_dir, id, 5, body);
    }

    const std::size_t victim = dice.below(dirs.size());
    cloud::FileStore victim_store(dirs[victim]);
    cloud::FaultyStore rotter(&victim_store, {}, rng(dice.next_u64()));
    std::size_t corrupted = 0;
    for (const auto& [id, body] : content) {
      switch (dice.below(4)) {
        case 0:
          rotter.corrupt_at_rest(id, dice.next_u64());
          ++corrupted;
          break;
        case 1:
          clobber_file(victim_store.path_for(id), "rot");
          ++corrupted;
          break;
        case 2:
          fs::remove(victim_store.path_for(id));
          ++corrupted;
          break;
        default:
          break;  // spared
      }
    }

    extension::FsckOptions options;
    options.password = kPassword;
    options.journal_dir = journal_dir;
    const extension::FsckResult result = extension::run_fsck(dirs, options);
    EXPECT_TRUE(result.healthy_after());
    EXPECT_TRUE(result.unrecoverable.empty());
    EXPECT_EQ(result.repaired_docs, result.dirty_docs);
    if (corrupted > 0) {
      EXPECT_GE(result.syncs_pushed, 1u);
    }
    cloud::FileStore healed(dirs[victim]);
    for (const auto& [id, body] : content) {
      const auto record = healed.get(id);
      ASSERT_TRUE(record.has_value()) << id;
      EXPECT_EQ(record->content, body) << id;
    }
  }
}

}  // namespace
}  // namespace privedit
