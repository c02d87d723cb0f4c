// Crash-consistency and self-healing (tentpole of the robustness PR):
//
//  - the extension's write-ahead journal: durable before the wire, torn
//    tails truncated, unacknowledged entries replayed idempotently at the
//    next open;
//  - rollback/fork detection against the journal's last-acknowledged
//    (revision, checksum) pair — the §II rollback adversary;
//  - provider-side durability (FileStore temp+fsync+rename+dirsync) under
//    deterministic power loss at every CrashPoint;
//  - replica anti-entropy: lagging replicas converge to byte-identical
//    ciphertext after a partition heals.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "privedit/client/gdocs_client.hpp"
#include "privedit/cloud/file_store.hpp"
#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/crypto/ctr_drbg.hpp"
#include "privedit/extension/journal.hpp"
#include "privedit/extension/mediator.hpp"
#include "privedit/extension/replication.hpp"
#include "privedit/net/socket.hpp"
#include "privedit/util/crashpoint.hpp"
#include "privedit/util/crc32.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::extension {
namespace {

namespace fs = std::filesystem;

// A channel the test can partition (requests refused) or make lossy on the
// return leg only: the request reaches the server, the response does not
// come back — the "ack lost in flight" crash window.
struct FlakyChannel final : net::Channel {
  explicit FlakyChannel(net::Channel* inner) : inner(inner) {}
  net::HttpResponse round_trip(const net::HttpRequest& r) override {
    if (down) {
      throw net::TransportError(net::FaultKind::kConnect, "partitioned");
    }
    net::HttpResponse resp = inner->round_trip(r);
    if (lose_acks) {
      throw net::TransportError(net::FaultKind::kReset, "ack lost");
    }
    return resp;
  }
  net::Channel* inner;
  bool down = false;
  bool lose_acks = false;
};

MediatorConfig mediator_config(std::string journal_dir, std::uint64_t seed) {
  MediatorConfig c;
  c.password = "pw";
  c.scheme.mode = enc::Mode::kRpc;
  c.scheme.kdf_iterations = 5;
  c.rng_factory = seeded_rng_factory(seed);
  c.journal_dir = std::move(journal_dir);
  return c;
}

// One client machine + one persistent provider, rebuildable on the same
// directories — constructing a second World over the first one's dirs IS
// the reboot.
struct World {
  World(const std::string& store_dir, const std::string& journal_dir,
        std::uint64_t seed) {
    server = std::make_unique<cloud::GDocsServer>();
    server->enable_persistence(store_dir);
    transport = std::make_unique<net::LoopbackTransport>(
        [this](const net::HttpRequest& r) { return server->handle(r); },
        &clock, net::LatencyModel{}, crypto::CtrDrbg::from_seed(seed));
    mediator = std::make_unique<GDocsMediator>(
        transport.get(), mediator_config(journal_dir, seed + 1), &clock);
  }
  net::SimClock clock;
  std::unique_ptr<cloud::GDocsServer> server;
  std::unique_ptr<net::LoopbackTransport> transport;
  std::unique_ptr<GDocsMediator> mediator;
};

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CrashPoints::disarm();
    CrashPoints::clear_seen();
    base_ = (fs::temp_directory_path() /
             ("privedit_recovery_" +
              std::to_string(
                  ::testing::UnitTest::GetInstance()->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()))
                .string();
    fs::remove_all(base_);
    fs::create_directories(base_);
    store_dir_ = base_ + "/store";
    journal_dir_ = base_ + "/journal";
  }
  void TearDown() override {
    CrashPoints::disarm();
    fs::remove_all(base_);
  }

  std::string base_, store_dir_, journal_dir_;
};

// ------------------------------------------------------------- journal

TEST_F(RecoveryTest, JournalStateSurvivesReopen) {
  const std::string path = base_ + "/j.wal";
  {
    EditJournal j(path);
    EXPECT_FALSE(j.last_acked().has_value());
    j.append_pending({0, true, "ck0", "full-ciphertext"});
    j.append_pending({1, false, "ck1", "cdelta-wire"});
    j.ack_front(1, "ck0");
    EXPECT_EQ(j.pending().size(), 1u);
  }
  EditJournal j(path);
  EXPECT_FALSE(j.recovered_torn_tail());
  ASSERT_TRUE(j.last_acked().has_value());
  EXPECT_EQ(j.last_acked()->rev, 1u);
  EXPECT_EQ(j.last_acked()->checksum, "ck0");
  ASSERT_EQ(j.pending().size(), 1u);
  EXPECT_EQ(j.pending().front().base_rev, 1u);
  EXPECT_FALSE(j.pending().front().full_save);
  EXPECT_EQ(j.pending().front().checksum, "ck1");
  EXPECT_EQ(j.pending().front().update, "cdelta-wire");

  j.drop_front();
  EXPECT_TRUE(j.pending().empty());
  j.reset(9, "ck9");
  EXPECT_EQ(j.last_acked()->rev, 9u);
}

TEST_F(RecoveryTest, JournalCompactShrinksAckedHistory) {
  const std::string path = base_ + "/j.wal";
  EditJournal j(path);
  for (int i = 0; i < 20; ++i) {
    j.append_pending({static_cast<std::uint64_t>(i), false, "ck",
                      std::string(200, 'x')});
    j.ack_front(static_cast<std::uint64_t>(i) + 1, "ck");
  }
  const std::uint64_t before = j.bytes_on_disk().value();
  j.compact();
  EXPECT_LT(j.bytes_on_disk().value(), before / 4);
  // The compacted file still carries the baseline.
  EditJournal reopened(path);
  ASSERT_TRUE(reopened.last_acked().has_value());
  EXPECT_EQ(reopened.last_acked()->rev, 20u);
}

/// One journal frame as the on-disk format defines it: "PEWJ", payload
/// length and CRC-32 (big-endian), payload.
std::string journal_frame(const std::string& payload) {
  std::string out = "PEWJ";
  for (const std::uint32_t v :
       {static_cast<std::uint32_t>(payload.size()), crc32(as_bytes(payload))}) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.push_back(static_cast<char>(v >> shift));
    }
  }
  return out + payload;
}

std::string journal_u64(std::uint64_t v) {
  std::string out;
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>(v >> shift));
  }
  return out;
}

/// Payload types of every frame in the journal file at `path`.
std::vector<int> journal_record_types(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<int> types;
  for (std::size_t at = 0; at + 12 < raw.size();) {
    std::size_t len = 0;
    for (std::size_t i = 4; i < 8; ++i) {
      len = (len << 8) | static_cast<unsigned char>(raw[at + i]);
    }
    types.push_back(static_cast<unsigned char>(raw[at + 12]));
    at += 12 + len;
  }
  return types;
}

TEST_F(RecoveryTest, JournalLoadsBaseWithContainerRecord) {
  // Older journals opened with a 0x05 record: BASE plus the acknowledged
  // container. It must load as BASE, with the records after it intact.
  const std::string path = base_ + "/j.wal";
  {
    const std::string pending_header = std::string(1, '\x01');
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << journal_frame(std::string(1, '\x05') + journal_u64(4) +
                         std::string("\x00\x03", 2) + "ck4" +
                         "3ABCDEFGH-acked-container")
        << journal_frame(pending_header + journal_u64(4) + '\x01' +
                         std::string("\x00\x03", 2) + "ck5" +
                         "3ABCDEFGH-next-container")
        << journal_frame(pending_header + journal_u64(5) + '\x00' +
                         std::string("\x00\x03", 2) + "ck6" + "=3\t+x")
        << journal_frame(std::string(1, '\x02') + journal_u64(5) + "ck5");
  }
  EditJournal j(path);
  EXPECT_FALSE(j.recovered_torn_tail());
  ASSERT_TRUE(j.last_acked().has_value());
  EXPECT_EQ(j.last_acked()->rev, 5u);
  EXPECT_EQ(j.last_acked()->checksum, "ck5");
  ASSERT_EQ(j.pending().size(), 1u);
  EXPECT_EQ(j.pending().front().base_rev, 5u);
  EXPECT_FALSE(j.pending().front().full_save);
  EXPECT_EQ(j.pending().front().checksum, "ck6");
  EXPECT_EQ(j.pending().front().update, "=3\t+x");

  // Rewritten, the journal holds only BASE and PENDING records.
  j.compact();
  EXPECT_EQ(journal_record_types(path), (std::vector<int>{0x03, 0x01}));
  j.drop_front();
  j.reset(6, "ck6");
  EXPECT_EQ(journal_record_types(path), std::vector<int>{0x03});
}

TEST_F(RecoveryTest, JournalTornTailIsTruncatedOnReload) {
  const std::string path = base_ + "/j.wal";
  std::uint64_t intact_size = 0;
  {
    EditJournal j(path);
    j.append_pending({3, false, "ck3", "keep-me"});
    intact_size = j.bytes_on_disk().value();
  }
  {
    // Power loss mid-append: half a frame of the next record.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char torn[] = {'P', 'E', 'W', 'J', '\x00', '\x00'};
    out.write(torn, sizeof torn);  // magic + truncated length field
  }
  EditJournal j(path);
  EXPECT_TRUE(j.recovered_torn_tail());
  EXPECT_EQ(j.bytes_on_disk().value(), intact_size);
  ASSERT_EQ(j.pending().size(), 1u);
  EXPECT_EQ(j.pending().front().update, "keep-me");
  // The journal keeps working after truncation.
  j.append_pending({4, false, "ck4", "after-the-tear"});
  EditJournal again(path);
  EXPECT_FALSE(again.recovered_torn_tail());
  EXPECT_EQ(again.pending().size(), 2u);
}

TEST_F(RecoveryTest, JournalCorruptMiddleRecordStopsReplayThere) {
  const std::string path = base_ + "/j.wal";
  std::uint64_t first_size = 0;
  {
    EditJournal j(path);
    j.append_pending({0, false, "ck0", "first"});
    first_size = j.bytes_on_disk().value();
    j.append_pending({1, false, "ck1", "second"});
  }
  {
    // Rot a byte inside the SECOND record's payload: CRC catches it and
    // everything from the corruption on is discarded.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(first_size) + 14);
    f.put('\xFF');
  }
  EditJournal j(path);
  EXPECT_TRUE(j.recovered_torn_tail());
  ASSERT_EQ(j.pending().size(), 1u);
  EXPECT_EQ(j.pending().front().update, "first");
  EXPECT_EQ(j.bytes_on_disk().value(), first_size);
}

TEST_F(RecoveryTest, CrashInsideJournalAppendKeepsDurablePrefix) {
  const std::string path = base_ + "/j.wal";
  for (const char* point :
       {"journal.append.before_write", "journal.append.torn",
        "journal.append.before_fsync"}) {
    SCOPED_TRACE(point);
    fs::remove(path);
    {
      EditJournal j(path);
      j.append_pending({0, true, "ck0", "acked-update"});
      j.ack_front(1, "ck0");
      CrashPoints::arm(point);
      EXPECT_THROW(j.append_pending({1, false, "ck1", "doomed"}),
                   CrashError);
    }
    EditJournal j(path);
    // The acknowledged prefix is always intact; the torn entry is either
    // fully there (crash before any bytes hit, then retried elsewhere) or
    // cleanly gone — never half-parsed.
    ASSERT_TRUE(j.last_acked().has_value());
    EXPECT_EQ(j.last_acked()->rev, 1u);
    EXPECT_EQ(j.last_acked()->checksum, "ck0");
    EXPECT_TRUE(j.pending().empty() ||
                j.pending().front().update == "doomed");
  }
}

// ----------------------------------------------------------- file store

TEST_F(RecoveryTest, CrashAtEveryFileStorePutPointKeepsACompleteRecord) {
  for (const char* point :
       {"file_store.put.created", "file_store.put.torn",
        "file_store.put.before_fsync", "file_store.put.before_rename",
        "file_store.put.before_dirsync"}) {
    SCOPED_TRACE(point);
    const std::string dir = store_dir_ + "_" + point;
    {
      cloud::FileStore store(dir);
      store.put("doc", {"old-and-complete", 1});
      CrashPoints::arm(point);
      EXPECT_THROW(store.put("doc", {"new-and-complete", 2}), CrashError);
    }
    // Reboot: the constructor discards stale temp files; the record read
    // back must be one of the two COMPLETE versions, never a torn mix.
    cloud::FileStore store(dir);
    const auto record = store.get("doc");
    ASSERT_TRUE(record.has_value());
    if (record->rev == 1) {
      EXPECT_EQ(record->content, "old-and-complete");
    } else {
      EXPECT_EQ(record->rev, 2u);
      EXPECT_EQ(record->content, "new-and-complete");
    }
    // No .tmp debris survives the reboot.
    for (const auto& entry : fs::directory_iterator(dir)) {
      EXPECT_NE(entry.path().extension(), ".tmp");
    }
  }
}

// --------------------------------------------------- client crash/replay

TEST_F(RecoveryTest, UnackedUpdateIsReplayedAtNextOpen) {
  {
    World w(store_dir_, journal_dir_, 700);
    FlakyChannel channel(w.transport.get());
    GDocsMediator mediator(&channel, mediator_config(journal_dir_, 702),
                           &w.clock);
    client::GDocsClient writer(&mediator, "doc");
    writer.create();
    writer.insert(0, "acknowledged base");
    writer.save();
    writer.insert(0, "lost-in-flight ");
    channel.down = true;  // request never reaches the provider
    EXPECT_THROW(writer.save(), net::TransportError);
    EXPECT_EQ(mediator.counters().journal_appends, 2u);
  }  // client machine dies with one unacknowledged update journalled

  World w(store_dir_, journal_dir_, 710);
  client::GDocsClient reader(w.mediator.get(), "doc");
  reader.open();
  EXPECT_EQ(reader.text(), "lost-in-flight acknowledged base");
  EXPECT_EQ(w.mediator->counters().journal_replays, 1u);
  EXPECT_EQ(w.mediator->counters().rollbacks_detected, 0u);
}

TEST_F(RecoveryTest, AckLostUpdateIsSettledNotDuplicated) {
  {
    World w(store_dir_, journal_dir_, 720);
    FlakyChannel channel(w.transport.get());
    GDocsMediator mediator(&channel, mediator_config(journal_dir_, 722),
                           &w.clock);
    client::GDocsClient writer(&mediator, "doc");
    writer.create();
    writer.insert(0, "base");
    writer.save();
    writer.insert(4, " once");
    channel.lose_acks = true;  // provider applies it; the ack vanishes
    EXPECT_THROW(writer.save(), net::TransportError);
  }

  World w(store_dir_, journal_dir_, 730);
  client::GDocsClient reader(w.mediator.get(), "doc");
  reader.open();
  // The revision CAS sees the server already past the entry's base
  // revision: the update was applied before the crash, so it is settled,
  // not resent — "base once", not "base once once".
  EXPECT_EQ(reader.text(), "base once");
  EXPECT_EQ(w.mediator->counters().journal_replays, 0u);
  EXPECT_GE(w.mediator->counters().journal_drops, 1u);
}

TEST_F(RecoveryTest, ProviderCrashMidPutNeverLosesAcknowledgedEdits) {
  {
    World w(store_dir_, journal_dir_, 740);
    client::GDocsClient writer(w.mediator.get(), "doc");
    writer.create();
    writer.insert(0, "acknowledged");
    writer.save();
    writer.insert(0, "maybe-lost ");
    // The provider loses power with the new record half-written.
    CrashPoints::arm("file_store.put.torn");
    EXPECT_THROW(writer.save(), CrashError);
  }

  // Provider restarts from disk; client restarts from its journal. The
  // half-written put was discarded, so the server is one revision behind
  // the journal's pending entry — which replays it.
  World w(store_dir_, journal_dir_, 750);
  client::GDocsClient reader(w.mediator.get(), "doc");
  reader.open();
  EXPECT_EQ(reader.text(), "maybe-lost acknowledged");
  EXPECT_EQ(w.mediator->counters().journal_replays, 1u);
}

// ------------------------------------------------------------- rollback

TEST_F(RecoveryTest, BackupRestoreRollbackDetectedAtOpen) {
  const std::string backup = base_ + "/backup";
  {
    World w(store_dir_, journal_dir_, 760);
    client::GDocsClient writer(w.mediator.get(), "doc");
    writer.create();
    writer.insert(0, "version one");
    writer.save();
    // The provider takes a backup...
    fs::create_directories(backup);
    for (const auto& entry : fs::directory_iterator(store_dir_)) {
      fs::copy(entry.path(), backup / entry.path().filename());
    }
    writer.insert(0, "version two, ");
    writer.save();
  }

  // ...and later "restores" it, silently discarding acknowledged edits.
  fs::remove_all(store_dir_);
  fs::create_directories(store_dir_);
  for (const auto& entry : fs::directory_iterator(backup)) {
    fs::copy(entry.path(), fs::path(store_dir_) / entry.path().filename());
  }

  World w(store_dir_, journal_dir_, 770);
  client::GDocsClient reader(w.mediator.get(), "doc");
  try {
    reader.open();
    FAIL() << "rollback not detected";
  } catch (const RollbackError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRollback);
  }
  EXPECT_EQ(w.mediator->counters().rollbacks_detected, 1u);
}

TEST_F(RecoveryTest, SameRevisionForkDetectedAtOpen) {
  std::uint64_t rev = 0;
  {
    World w(store_dir_, journal_dir_, 780);
    client::GDocsClient writer(w.mediator.get(), "doc");
    writer.create();
    writer.insert(0, "the acknowledged bytes");
    writer.save();
    rev = writer.revision();
  }
  {
    // The provider forks history: same revision, different ciphertext.
    cloud::FileStore store(store_dir_);
    auto record = store.get("doc");
    ASSERT_TRUE(record.has_value());
    std::string& c = record->content;
    c[c.size() / 2] = static_cast<char>(c[c.size() / 2] ^ 0x01);
    store.put("doc", {record->content, rev});
  }

  World w(store_dir_, journal_dir_, 790);
  client::GDocsClient reader(w.mediator.get(), "doc");
  // The fork is caught by the journal's checksum BEFORE decryption even
  // runs — RollbackError, not a generic integrity failure.
  EXPECT_THROW(reader.open(), RollbackError);
  EXPECT_EQ(w.mediator->counters().rollbacks_detected, 1u);
}

TEST_F(RecoveryTest, HonestReopenAfterCleanShutdownIsQuiet) {
  {
    World w(store_dir_, journal_dir_, 800);
    client::GDocsClient writer(w.mediator.get(), "doc");
    writer.create();
    writer.insert(0, "nothing suspicious here");
    writer.save();  // full save
    writer.insert(0, "really, ");
    writer.save();  // delta save — its checksum is of the mirror, which
                    // must equal what the server stores byte-for-byte
  }
  World w(store_dir_, journal_dir_, 810);
  client::GDocsClient reader(w.mediator.get(), "doc");
  reader.open();
  EXPECT_EQ(reader.text(), "really, nothing suspicious here");
  EXPECT_EQ(w.mediator->counters().rollbacks_detected, 0u);
  EXPECT_EQ(w.mediator->counters().journal_replays, 0u);
  EXPECT_EQ(w.mediator->counters().ack_checksum_mismatches, 0u);
}

// ------------------------------------------------------ replica healing

struct Replica {
  Replica(const std::string& dir, net::SimClock* clock, std::uint64_t seed) {
    server.enable_persistence(dir);
    transport = std::make_unique<net::LoopbackTransport>(
        [this](const net::HttpRequest& r) { return server.handle(r); },
        clock, net::LatencyModel{}, crypto::CtrDrbg::from_seed(seed));
    flaky = std::make_unique<FlakyChannel>(transport.get());
  }
  cloud::GDocsServer server;
  std::unique_ptr<net::LoopbackTransport> transport;
  std::unique_ptr<FlakyChannel> flaky;
};

TEST_F(RecoveryTest, ReplicaHealsToByteIdenticalAfterPartition) {
  net::SimClock clock;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::vector<net::Channel*> channels;
  for (int i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<Replica>(
        store_dir_ + "_" + std::to_string(i), &clock,
        820 + static_cast<std::uint64_t>(i)));
    channels.push_back(replicas.back()->flaky.get());
  }
  ReplicatedChannel replicated(channels, gdocs_open_validator("pw"));
  GDocsMediator mediator(&replicated, mediator_config(journal_dir_, 824),
                         &clock);
  client::GDocsClient writer(&mediator, "doc");
  writer.create();
  writer.insert(0, "replicated and repaired");
  writer.save();

  // Partition replica 2 and keep editing: a majority (2 of 3) still acks,
  // so the writes succeed — as partial writes.
  replicas[2]->flaky->down = true;
  writer.insert(0, "more ");
  writer.save();
  writer.insert(0, "even ");
  writer.save();
  EXPECT_GE(replicated.counters().partial_writes, 2u);
  const auto healthy = replicas[0]->server.raw_content("doc");
  ASSERT_TRUE(healthy.has_value());
  EXPECT_NE(replicas[2]->server.raw_content("doc").value_or(""), *healthy);

  // Partition heals; the anti-entropy pass pushes the verified ciphertext
  // back. All three replicas end byte-identical.
  replicas[2]->flaky->down = false;
  EXPECT_GE(replicated.repair_all(), 1u);
  EXPECT_GT(replicated.counters().repairs_succeeded, 0u);
  for (const auto& r : replicas) {
    EXPECT_EQ(r->server.raw_content("doc").value_or("!"), *healthy);
  }

  // And the healed copy actually decrypts: a reader served by replica 2
  // alone sees the document.
  ReplicatedChannel only_last({replicas[2]->flaky.get()},
                              gdocs_open_validator("pw"));
  GDocsMediator mediator2(&only_last, mediator_config("", 830), &clock);
  client::GDocsClient reader(&mediator2, "doc");
  reader.open();
  EXPECT_EQ(reader.text(), "even more replicated and repaired");
}

TEST_F(RecoveryTest, WriteQuorumIsSurfacedAndEnforced) {
  net::SimClock clock;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::vector<net::Channel*> channels;
  for (int i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<Replica>(
        store_dir_ + "_" + std::to_string(i), &clock,
        840 + static_cast<std::uint64_t>(i)));
    channels.push_back(replicas.back()->flaky.get());
  }
  ReplicatedChannel replicated(channels, gdocs_open_validator("pw"));

  FormData create;
  create.add("cmd", "create");
  net::HttpResponse resp = replicated.round_trip(
      net::HttpRequest::post_form("/Doc?docID=doc", create.encode()));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.headers.get("X-Replication-Acks").value_or(""), "3/3");

  FormData save;
  save.add("session", "1");
  save.add("rev", "0");
  save.add("docContents", "opaque bytes");
  replicas[0]->flaky->down = true;
  resp = replicated.round_trip(
      net::HttpRequest::post_form("/Doc?docID=doc", save.encode()));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.headers.get("X-Replication-Acks").value_or(""), "2/3");
  EXPECT_GE(replicated.counters().partial_writes, 1u);

  // Below the majority quorum the write fails loudly.
  replicas[1]->flaky->down = true;
  save.set("rev", "1");
  resp = replicated.round_trip(
      net::HttpRequest::post_form("/Doc?docID=doc", save.encode()));
  EXPECT_EQ(resp.status, 502);
  EXPECT_GE(replicated.counters().quorum_failures, 1u);
}

// --------------------------------------------------- exhaustive matrix

struct WorkloadResult {
  bool created = false;
  bool crashed = false;
  std::string acked;      // last text the server acknowledged
  std::string attempted;  // acked plus the (at most one) in-flight edit
};

WorkloadResult run_workload(const std::string& store_dir,
                            const std::string& journal_dir,
                            std::uint64_t seed) {
  WorkloadResult out;
  World w(store_dir, journal_dir, seed);
  client::GDocsClient writer(w.mediator.get(), "doc");
  try {
    writer.create();
    out.created = true;
    writer.insert(0, "alpha");
    out.attempted = writer.text();
    writer.save();
    out.acked = writer.text();
    writer.insert(5, " bravo");
    out.attempted = writer.text();
    writer.save();
    out.acked = writer.text();
    writer.insert(0, "charlie ");
    out.attempted = writer.text();
    writer.save();
    out.acked = writer.text();
  } catch (const CrashError&) {
    out.crashed = true;
  }
  return out;
}

TEST_F(RecoveryTest, CrashAtEveryPointNeverLosesAcknowledgedEdits) {
  // Discover the full crash matrix from an uninstrumented run instead of
  // hard-coding it: every durability step registers itself.
  CrashPoints::clear_seen();
  {
    const WorkloadResult dry =
        run_workload(store_dir_ + "_dry", journal_dir_ + "_dry", 900);
    ASSERT_FALSE(dry.crashed);
  }
  const std::vector<std::string> points = CrashPoints::seen();
  ASSERT_GE(points.size(), 10u) << "crash matrix unexpectedly small";

  std::uint64_t seed = 1000;
  for (const std::string& point : points) {
    // Crash at every OCCURRENCE of every point, not just the first: the
    // same step behaves differently under create, full save and delta
    // save.
    for (int nth = 1; nth <= 12; ++nth) {
      SCOPED_TRACE(point + " #" + std::to_string(nth));
      const std::string tag = "_" + point + "_" + std::to_string(nth);
      CrashPoints::arm(point, nth);
      const WorkloadResult r =
          run_workload(store_dir_ + tag, journal_dir_ + tag, seed);
      CrashPoints::disarm();
      seed += 20;
      if (!r.crashed) break;  // fewer than nth occurrences on this path

      // Reboot provider and client on the same directories.
      World w(store_dir_ + tag, journal_dir_ + tag, seed);
      seed += 20;
      client::GDocsClient reader(w.mediator.get(), "doc");
      try {
        reader.open();
        // The invariant: everything acknowledged before the crash is
        // still there. The in-flight edit may additionally have survived
        // (journal replay / server applied it) — both are legal; a torn
        // mixture or a lost acknowledged edit is not.
        EXPECT_TRUE(reader.text() == r.acked || reader.text() == r.attempted)
            << "recovered '" << reader.text() << "', acked '" << r.acked
            << "', attempted '" << r.attempted << "'";
      } catch (const ProtocolError&) {
        // Open can only fail if the document itself never made it.
        EXPECT_FALSE(r.created);
        EXPECT_TRUE(r.acked.empty());
      }
    }
  }
}

}  // namespace
}  // namespace privedit::extension
