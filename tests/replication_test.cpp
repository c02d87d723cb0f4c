// Tests for the extension features beyond the paper's prototype:
// replication across providers (§II's availability remark), password
// rotation, autosave ticking, and raw-delta batching via composition.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "privedit/client/gdocs_client.hpp"
#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/crypto/ctr_drbg.hpp"
#include "privedit/delta/delta.hpp"
#include "privedit/extension/mediator.hpp"
#include "privedit/extension/replication.hpp"
#include "privedit/extension/session.hpp"
#include "privedit/util/error.hpp"

namespace privedit::extension {
namespace {

struct Replica {
  cloud::GDocsServer server;
  std::unique_ptr<net::LoopbackTransport> transport;
};

struct ReplicatedStack {
  explicit ReplicatedStack(int n, const std::string& password) {
    for (int i = 0; i < n; ++i) {
      auto replica = std::make_unique<Replica>();
      replica->transport = std::make_unique<net::LoopbackTransport>(
          [server = &replica->server](const net::HttpRequest& r) {
            return server->handle(r);
          },
          &clock, net::LatencyModel{},
          crypto::CtrDrbg::from_seed(100 + static_cast<std::uint64_t>(i)));
      replicas.push_back(std::move(replica));
    }
    std::vector<net::Channel*> channels;
    for (auto& r : replicas) channels.push_back(r->transport.get());
    replicated = std::make_unique<ReplicatedChannel>(
        channels, gdocs_open_validator(password));

    MediatorConfig config;
    config.password = password;
    // Integrity mode: fail-over needs tampering to be *detectable*.
    config.scheme.mode = enc::Mode::kRpc;
    config.rng_factory = seeded_rng_factory(55);
    mediator = std::make_unique<GDocsMediator>(replicated.get(), config,
                                               &clock);
  }

  net::SimClock clock;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<ReplicatedChannel> replicated;
  std::unique_ptr<GDocsMediator> mediator;
};

TEST(Replication, WritesReachEveryReplica) {
  ReplicatedStack stack(3, "pw");
  client::GDocsClient writer(stack.mediator.get(), "doc");
  writer.create();
  writer.insert(0, "replicated secret");
  writer.save();

  for (auto& replica : stack.replicas) {
    const auto stored = replica->server.raw_content("doc");
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored, stack.replicas[0]->server.raw_content("doc"));
    EXPECT_EQ(stored->find("secret"), std::string::npos);
  }
  EXPECT_GE(stack.replicated->counters().writes_broadcast, 2u);
}

TEST(Replication, ReadFailsOverPastTamperedReplica) {
  ReplicatedStack stack(3, "pw");
  client::GDocsClient writer(stack.mediator.get(), "doc");
  writer.create();
  writer.insert(0, "survives a corrupt provider");
  writer.save();

  // Provider 0 corrupts its copy; provider 1 wipes it entirely.
  std::string bad = *stack.replicas[0]->server.raw_content("doc");
  bad[bad.size() / 2] = bad[bad.size() / 2] == 'A' ? 'B' : 'A';
  stack.replicas[0]->server.set_raw_content("doc", bad);
  stack.replicas[1]->server.set_raw_content("doc", "GARBAGE");

  // A fresh user still opens the document via replica 2.
  MediatorConfig config;
  config.password = "pw";
  config.scheme.mode = enc::Mode::kRpc;
  config.rng_factory = seeded_rng_factory(56);
  GDocsMediator mediator2(stack.replicated.get(), config, &stack.clock);
  client::GDocsClient reader(&mediator2, "doc");
  reader.open();
  EXPECT_EQ(reader.text(), "survives a corrupt provider");
  EXPECT_GE(stack.replicated->counters().read_failovers, 2u);
}

TEST(Replication, AllReplicasBadIsLoudFailure) {
  ReplicatedStack stack(2, "pw");
  client::GDocsClient writer(stack.mediator.get(), "doc");
  writer.create();
  writer.insert(0, "soon to be destroyed");
  writer.save();
  stack.replicas[0]->server.set_raw_content("doc", "junk0");
  stack.replicas[1]->server.set_raw_content("doc", "junk1");

  MediatorConfig config;
  config.password = "pw";
  config.scheme.mode = enc::Mode::kRpc;
  config.rng_factory = seeded_rng_factory(57);
  GDocsMediator mediator2(stack.replicated.get(), config, &stack.clock);
  client::GDocsClient reader(&mediator2, "doc");
  EXPECT_THROW(reader.open(), Error);
}

TEST(Replication, RejectsEmptyOrNullReplicaSets) {
  EXPECT_THROW(ReplicatedChannel({}, {}), Error);
  EXPECT_THROW(ReplicatedChannel({nullptr}, {}), Error);
}

TEST(PasswordRotation, OldPasswordLockedOutNewWorks) {
  const auto rng = seeded_rng_factory(58);
  enc::SchemeConfig config;
  config.mode = enc::Mode::kRpc;
  DocumentSession session = DocumentSession::create_new("old-pw", config, rng);
  session.encrypt_full("rotate me");

  DocumentSession rotated = rotate_password(session, "new-pw", rng);
  const std::string new_doc = rotated.scheme().ciphertext_doc();
  EXPECT_EQ(rotated.plaintext(), "rotate me");

  EXPECT_EQ(DocumentSession::open("new-pw", new_doc, rng).plaintext(),
            "rotate me");
  EXPECT_THROW(DocumentSession::open("old-pw", new_doc, rng), CryptoError);
  // Mode and parameters carry over.
  EXPECT_EQ(rotated.scheme().header().mode, enc::Mode::kRpc);
  // Fresh salt.
  EXPECT_NE(rotated.scheme().header().salt, session.scheme().header().salt);
}

TEST(Autosave, TicksFireOnIntervalOnlyWhenDirty) {
  cloud::GDocsServer server;
  net::SimClock clock;
  net::LoopbackTransport transport(
      [&server](const net::HttpRequest& r) { return server.handle(r); },
      &clock, net::LatencyModel{}, crypto::CtrDrbg::from_seed(59));
  client::GDocsClient writer(&transport, "doc");
  writer.create();
  writer.set_autosave_interval(30'000'000);  // 30 s, as a web editor would

  writer.insert(0, "typed text");
  EXPECT_FALSE(writer.tick(10'000'000));  // too early
  EXPECT_TRUE(writer.tick(31'000'000));   // due and dirty
  EXPECT_EQ(server.raw_content("doc"), "typed text");
  EXPECT_FALSE(writer.tick(62'000'000));  // due but clean
}

TEST(RawDeltaBatching, ComposedBeforeSending) {
  cloud::GDocsServer server;
  net::SimClock clock;
  net::LoopbackTransport transport(
      [&server](const net::HttpRequest& r) { return server.handle(r); },
      &clock, net::LatencyModel{}, crypto::CtrDrbg::from_seed(60));
  client::GDocsClient writer(&transport, "doc");
  writer.create();
  writer.insert(0, "abcdef");
  writer.save();

  // Three keystroke deltas accumulated between autosaves.
  delta::Delta k1 = delta::Delta::parse("=2\t+X");    // abXcdef
  delta::Delta k2 = delta::Delta::parse("=5\t-1");    // abXcdf
  delta::Delta k3 = delta::Delta::parse("+Y");        // YabXcdf
  writer.queue_raw_delta(k1);
  writer.queue_raw_delta(k2);
  writer.queue_raw_delta(k3);
  writer.replace(0, writer.text().size(), "YabXcdf");
  const std::size_t saves_before = server.counters().delta_saves;
  writer.save();
  EXPECT_EQ(server.counters().delta_saves, saves_before + 1);  // one update
  EXPECT_EQ(server.raw_content("doc"), "YabXcdf");
}

// ----------------------------------------- differential anti-entropy --

/// Forwards to `inner`, keeping every request form it carried.
class RecordingChannel final : public net::Channel {
 public:
  explicit RecordingChannel(net::Channel* inner) : inner_(inner) {}
  net::HttpResponse round_trip(const net::HttpRequest& request) override {
    forms.push_back(FormData::parse(request.body));
    return inner_->round_trip(request);
  }
  std::vector<FormData> forms;

 private:
  net::Channel* inner_;
};

TEST(Replication, LaggingReplicaHealsOverBlockDelta) {
  ReplicatedStack stack(3, "pw");
  client::GDocsClient writer(stack.mediator.get(), "doc");
  writer.create();
  writer.insert(0, std::string(3000, 'r'));
  writer.save();
  const std::string old_copy = *stack.replicas[2]->server.raw_content("doc");
  writer.insert(0, "tiny edit ");
  writer.save();  // delta save: the container evolves incrementally
  const std::string fresh = *stack.replicas[0]->server.raw_content("doc");
  ASSERT_NE(fresh, old_copy);

  // Replica 2 "missed" the second save; anti-entropy must send only the
  // blocks it lacks, and the result must be byte-identical to the donor.
  stack.replicas[2]->server.set_raw_content("doc", old_copy);
  RecordingChannel wire(stack.replicas[2]->transport.get());
  SyncPushStats stats;
  EXPECT_TRUE(push_sync_over(wire, "/Doc?docID=doc", fresh, "7", &stats));
  EXPECT_EQ(stats.probes, 1u);
  EXPECT_EQ(stats.delta_pushes, 1u);
  EXPECT_EQ(stats.full_pushes, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
  EXPECT_LT(stats.bytes_delta * 4, fresh.size());
  EXPECT_EQ(stack.replicas[2]->server.raw_content("doc").value_or(""), fresh);
  EXPECT_EQ(stack.replicas[2]->server.counters().delta_syncs, 1u);

  // The push is the §IV delta anchored on the probed copy and the donor's.
  ASSERT_EQ(wire.forms.size(), 2u);
  const FormData& push = wire.forms[1];
  EXPECT_TRUE(push.contains("delta"));
  EXPECT_FALSE(push.contains("content"));
  EXPECT_EQ(push.get("dbase"), delta::base_anchor(old_copy));
  EXPECT_EQ(push.get("dtarget"), delta::base_anchor(fresh));
}

TEST(Replication, QuarantinedReplicaOnlyHealsViaFullContainer) {
  ReplicatedStack stack(2, "pw");
  client::GDocsClient writer(stack.mediator.get(), "doc");
  writer.create();
  writer.insert(0, std::string(2000, 'q'));
  writer.save();
  const std::string fresh = *stack.replicas[0]->server.raw_content("doc");

  // Replica 1's copy rots and the integrity subsystem walls it off. Its
  // digests describe rot, so the probe must steer the pusher to the full
  // container — a delta against damage is just rearranged damage.
  std::string rotted = fresh;
  rotted[rotted.size() / 2] ^= 0x01;
  stack.replicas[1]->server.set_raw_content("doc", rotted);
  stack.replicas[1]->server.quarantine("doc");

  SyncPushStats stats;
  EXPECT_TRUE(push_sync_over(*stack.replicas[1]->transport, "/Doc?docID=doc",
                             fresh, "3", &stats));
  EXPECT_EQ(stats.delta_pushes, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);  // the probe itself said "full only"
  EXPECT_EQ(stats.full_pushes, 1u);
  // The validated container is the one exit from quarantine.
  EXPECT_FALSE(stack.replicas[1]->server.is_quarantined("doc"));
  EXPECT_EQ(stack.replicas[1]->server.raw_content("doc").value_or(""), fresh);
}

}  // namespace
}  // namespace privedit::extension
