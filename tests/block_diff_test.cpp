// Differential repair (delta/block_diff.hpp): round-trip properties of the
// digest matcher's Delta output through the paper's wire language, the
// digest-list wire form, and the receiver's anchors — a delta sync whose
// dbase misses the replica's copy, or whose result misses dtarget, is
// refused with 412 and changes nothing.
//
// Scale the randomized rounds with PRIVEDIT_DIFF_ITERS=n (tools/check.sh
// diff soaks exactly this knob).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/delta/block_diff.hpp"
#include "privedit/delta/delta.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/random.hpp"
#include "privedit/util/urlencode.hpp"

namespace {

using privedit::FormData;
using privedit::ParseError;
using privedit::Xoshiro256;
namespace cloud = privedit::cloud;
namespace delta = privedit::delta;
namespace net = privedit::net;

std::size_t iter_scale() {
  const char* env = std::getenv("PRIVEDIT_DIFF_ITERS");
  if (env == nullptr) return 1;
  const long v = std::atol(env);
  return v > 1 ? static_cast<std::size_t>(v) : 1;
}

/// The repair delta a replica holding `source` would be sent for `target`.
delta::Delta repair_delta(const std::string& source, const std::string& target,
                          std::size_t block_size) {
  return delta::block_diff_from_digests(
      delta::block_digests(source, block_size), source.size(), target,
      block_size);
}

/// Round trips source -> target the way repair does: digests -> digest
/// wire -> Delta -> Delta wire -> parse -> apply.
void expect_round_trip(const std::string& source, const std::string& target,
                       std::size_t block_size) {
  const std::vector<std::uint64_t> digests =
      delta::block_digests(source, block_size);
  ASSERT_EQ(delta::block_digests_from_wire(
                delta::block_digests_to_wire(digests)),
            digests);
  const delta::Delta d = delta::block_diff_from_digests(
      digests, source.size(), target, block_size);
  EXPECT_TRUE(d.is_canonical());
  const delta::Delta parsed = delta::Delta::parse(d.to_wire());
  EXPECT_EQ(parsed, d) << "wire is not a fixed point, block_size="
                       << block_size;
  EXPECT_EQ(parsed.apply(source), target) << "block_size=" << block_size;
}

std::string random_text(Xoshiro256& rng, std::size_t len) {
  std::string out(len, '\0');
  for (char& c : out) {
    c = static_cast<char>(rng.below(256));
  }
  return out;
}

std::size_t inserted_bytes(const delta::Delta& d) {
  std::size_t n = 0;
  for (const delta::Op& op : d.ops()) {
    if (op.kind == delta::OpKind::kInsert) n += op.count;
  }
  return n;
}

/// A replica whose copy of "doc" is `copy` (planted by a full sync).
struct Replica {
  explicit Replica(const std::string& copy) {
    FormData plant;
    plant.add("cmd", "sync");
    plant.add("rev", "3");
    plant.add("content", copy);
    EXPECT_TRUE(server.handle(post(plant)).ok());
  }

  static net::HttpRequest post(const FormData& form) {
    return net::HttpRequest::post_form("/Doc?docID=doc", form.encode());
  }

  /// cmd=sync carrying `d` with the given anchors.
  net::HttpResponse push(const std::string& wire, const std::string& dbase,
                         const std::string& dtarget) {
    FormData form;
    form.add("cmd", "sync");
    form.add("rev", "4");
    form.add("delta", wire);
    form.add("dbase", dbase);
    form.add("dtarget", dtarget);
    return server.handle(post(form));
  }

  cloud::GDocsServer server;
};

// ------------------------------------------------------------ edge cases --

TEST(BlockDiff, EmptyAndDegenerateDocuments) {
  expect_round_trip("", "", 16);
  expect_round_trip("", "fresh content", 16);
  expect_round_trip("old content", "", 16);
  expect_round_trip("x", "y", 1);
  expect_round_trip("x", "x", 1);
}

TEST(BlockDiff, IdenticalInputsShipNoLiterals) {
  const std::string doc(4096, 'Q');
  const delta::Delta d = repair_delta(doc, doc, 64);
  EXPECT_EQ(inserted_bytes(d), 0u);
  EXPECT_LT(d.to_wire().size(), doc.size() / 10);
  EXPECT_EQ(d.apply(doc), doc);
}

TEST(BlockDiff, OneByteEditCompressesTenfold) {
  // A 1-byte change in a >=100 KB container must repair in a tenth of the
  // full body, at the block size the probe actually uses.
  Xoshiro256 rng(11);
  std::string source = random_text(rng, 120 * 1024);
  std::string target = source;
  target[60'000] = static_cast<char>(target[60'000] ^ 0x5a);
  const delta::Delta d =
      repair_delta(source, target, delta::repair_block_size(source.size()));
  const std::string wire = d.to_wire();
  EXPECT_LE(wire.size() * 10, target.size())
      << "1-byte edit wire is " << wire.size() << " of " << target.size();
  EXPECT_EQ(delta::Delta::parse(wire).apply(source), target);
}

TEST(BlockDiff, BinaryBytesSurviveEveryPath) {
  std::string all_bytes;
  for (int round = 0; round < 3; ++round) {
    for (int b = 0; b < 256; ++b) {
      all_bytes.push_back(static_cast<char>(b));
    }
  }
  std::string shuffled = all_bytes;
  for (std::size_t i = 0; i + 7 < shuffled.size(); i += 7) {
    std::swap(shuffled[i], shuffled[i + 3]);
  }
  expect_round_trip(all_bytes, shuffled, 16);
  expect_round_trip(shuffled, all_bytes, 5);  // block size not a divisor
}

TEST(BlockDiff, EditsAtBlockBoundaries) {
  const std::size_t bs = 32;
  std::string source;
  for (std::size_t i = 0; i < 8 * bs; ++i) {
    source.push_back(static_cast<char>('A' + i % 26));
  }
  // Insert exactly at a boundary, delete a whole aligned block, and a
  // final short block: the matcher's alignment edge cases.
  std::string inserted = source;
  inserted.insert(4 * bs, std::string(bs, '#'));
  expect_round_trip(source, inserted, bs);

  std::string dropped = source;
  dropped.erase(2 * bs, bs);
  expect_round_trip(source, dropped, bs);

  std::string short_tail = source + "tail";
  expect_round_trip(source, short_tail, bs);
  expect_round_trip(short_tail, source, bs);

  // Swapped halves: a Delta cannot copy backwards, so the half that moved
  // forward ships as literal — still exact.
  expect_round_trip(source, source.substr(4 * bs) + source.substr(0, 4 * bs),
                    bs);
}

// --------------------------------------------------------------- anchors --

TEST(BlockDiff, StaleSourceIsRejectedByAnchor) {
  const std::string source(300, 'a');
  const std::string target(300, 'b');
  const std::string wire = repair_delta(source, target, 32).to_wire();

  // The replica's copy moved between probe and push.
  std::string moved = source;
  moved[5] = 'z';
  Replica replica(moved);
  const auto resp = replica.push(wire, delta::base_anchor(source),
                                 delta::base_anchor(target));
  EXPECT_EQ(resp.status, 412);
  EXPECT_EQ(replica.server.raw_content("doc"), moved);
  EXPECT_EQ(replica.server.table().find("doc")->rev, 3u);
  EXPECT_EQ(replica.server.counters().anchor_mismatches, 1u);
  EXPECT_EQ(replica.server.counters().delta_syncs, 0u);

  // No copy at all: nothing for dbase to name.
  cloud::GDocsServer empty;
  FormData form;
  form.add("cmd", "sync");
  form.add("delta", wire);
  form.add("dbase", delta::base_anchor(source));
  form.add("dtarget", delta::base_anchor(target));
  EXPECT_EQ(empty.handle(Replica::post(form)).status, 412);
  EXPECT_FALSE(empty.raw_content("doc").has_value());
}

TEST(BlockDiff, TamperedDeltaMissesTargetCrc) {
  const std::string source(300, 'a');
  std::string target = source;
  target[150] = 'b';
  std::string wire = repair_delta(source, target, 32).to_wire();
  const std::size_t literal = wire.find('b');
  ASSERT_NE(literal, std::string::npos);
  wire[literal] = 'c';  // still applies, but not to the donor's bytes
  Replica replica(source);
  const auto resp = replica.push(wire, delta::base_anchor(source),
                                 delta::base_anchor(target));
  EXPECT_EQ(resp.status, 412);
  EXPECT_EQ(replica.server.raw_content("doc"), source);
  EXPECT_EQ(replica.server.counters().anchor_mismatches, 1u);

  // The untampered delta lands.
  EXPECT_TRUE(replica
                  .push(repair_delta(source, target, 32).to_wire(),
                        delta::base_anchor(source), delta::base_anchor(target))
                  .ok());
  EXPECT_EQ(replica.server.raw_content("doc"), target);
  EXPECT_EQ(replica.server.counters().delta_syncs, 1u);
}

TEST(BlockDiff, DigestCollisionIsCaughtByTargetCrc) {
  // Simulate the digest exchange going stale: digests describe one copy,
  // the delta is applied against another of the same size. The per-block
  // digests differ, so retains reproduce wrong bytes — the target anchor
  // must catch it even with dbase naming the copy actually held.
  Xoshiro256 rng(7);
  const std::string advertised = random_text(rng, 1024);
  std::string actual = advertised;
  actual[512] = static_cast<char>(actual[512] ^ 0xff);
  const std::string target = advertised;  // replica wants the advertised bytes

  const delta::Delta d = repair_delta(advertised, target, 64);
  ASSERT_NE(d.apply(actual), target);
  Replica replica(actual);
  const auto resp = replica.push(d.to_wire(), delta::base_anchor(actual),
                                 delta::base_anchor(target));
  EXPECT_EQ(resp.status, 412);
  EXPECT_EQ(replica.server.raw_content("doc"), actual);
  EXPECT_EQ(replica.server.counters().anchor_mismatches, 1u);
}

// ------------------------------------------------------------------ wire --

TEST(BlockWire, MalformedInputsRejectLoudly) {
  EXPECT_THROW((void)delta::block_digests_from_wire("0123456789abcde"),
               ParseError);  // not a whole digest
  EXPECT_THROW((void)delta::block_digests_from_wire("0123456789ABCDEF"),
               ParseError);  // hex is lowercase-only on this wire
  EXPECT_THROW((void)delta::block_digests_from_wire("0123456789abcdeg"),
               ParseError);
  EXPECT_TRUE(delta::block_digests_from_wire("").empty());
}

TEST(BlockWire, DigestListRoundTrips) {
  const std::string data = "digest exchange sample payload, three blocks";
  const std::vector<std::uint64_t> digests = delta::block_digests(data, 16);
  EXPECT_EQ(digests.size(), 3u);
  EXPECT_EQ(delta::block_digests_from_wire(
                delta::block_digests_to_wire(digests)),
            digests);
}

TEST(BlockDiff, RepairBlockSizeTargetsSmallProbes) {
  EXPECT_EQ(delta::repair_block_size(0), delta::kDefaultBlockSize);
  EXPECT_EQ(delta::repair_block_size(100), delta::kDefaultBlockSize);
  EXPECT_EQ(delta::repair_block_size(1 << 30), std::size_t{4096});
  // Until the 4096-byte cap kicks in, the digest list stays near the
  // ~64-block budget (a ~1 KB probe response).
  for (const std::size_t size : {10'000u, 100'000u, 260'000u}) {
    const std::size_t bs = delta::repair_block_size(size);
    EXPECT_GE(bs, delta::kDefaultBlockSize);
    EXPECT_LE(bs, 4096u);
    EXPECT_LE((size + bs - 1) / bs, 160u) << "size=" << size;
  }
}

// ------------------------------------------------------------ randomized --

TEST(BlockDiff, RandomizedRoundTrips) {
  Xoshiro256 rng(20260808);
  const std::size_t rounds = 60 * iter_scale();
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::size_t block_size = 1 + rng.below(96);
    const std::size_t src_len = rng.below(3000);
    std::string source = random_text(rng, src_len);

    // Target: a handful of splices over the source, so real runs of
    // shared blocks survive for the matcher to find.
    std::string target = source;
    const std::size_t edits = 1 + rng.below(6);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = target.empty() ? 0 : rng.below(target.size());
      const std::size_t del =
          target.empty() ? 0
                         : rng.below(std::min<std::size_t>(
                               target.size() - pos, 64) + 1);
      target.replace(pos, del, random_text(rng, rng.below(64)));
    }
    expect_round_trip(source, target, block_size);
  }
}

}  // namespace
