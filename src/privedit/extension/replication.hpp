#pragma once
// Replication across multiple cloud providers.
//
// §II: "a malicious or incompetent cloud provider can easily prevent users
// from accessing their documents. This could be addressed using replication
// with multiple cloud providers, but this is outside the scope of this
// paper." — implemented here as an extension feature.
//
// ReplicatedChannel fans every update out to all replicas and serves reads
// from the first replica whose response passes a caller-supplied validator
// (for encrypted documents: "does it decrypt and verify under the
// password?"). A provider that withholds, corrupts or rolls back data is
// skipped; availability holds as long as one replica is honest and
// reachable.
//
// Writes are quorum-gated: an update counts as accepted only when at least
// `write_quorum` replicas acknowledged it (default: a majority, n/2+1).
// Partial success is surfaced in the X-Replication-Acks response header
// ("k/n") and the partial_writes counter, and the lagging replicas are
// remembered for anti-entropy: a repair pass re-pushes the last verified
// ciphertext (fetched from a healthy replica, validated) to replicas that
// missed a write or served an invalid read, under a bounded per-replica
// retry budget. Repair runs opportunistically after partial writes and
// failed-over reads (auto_repair) and on demand via repair_all().
//
// Replica health (degraded-mode PR): every round trip feeds a per-replica
// score — an EWMA of the error rate plus an EWMA of latency, backed by a
// LatencyHistogram for percentiles. Reads try replicas in health order
// (healthiest first) instead of fixed order, so a flapping or slow replica
// stops being the first hop for every read. A replica whose error EWMA
// crosses quarantine_error_rate is quarantined: demoted to last resort
// until probation_us elapses, then given one probationary attempt —
// success restores it, failure re-quarantines. Writes still broadcast to
// every replica (replication requires it); their outcomes feed the scores.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "privedit/net/transport.hpp"
#include "privedit/util/histogram.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::extension {

struct ReplicationConfig {
  /// Replicas that must acknowledge a write before it counts as accepted.
  /// 0 means majority (n/2 + 1); values above n are clamped to n. A
  /// quorum of 1 restores pre-quorum "any replica" availability mode.
  std::size_t write_quorum = 0;

  /// Repair lagging replicas opportunistically, right after the partial
  /// write or failed-over read that exposed them.
  bool auto_repair = true;

  /// Sync attempts per (document, replica) before giving up; repair_all()
  /// replenishes the budget.
  int repair_budget = 3;

  // ----- replica health scoring -----

  /// EWMA smoothing for per-replica latency and error rate. Higher reacts
  /// faster to a state change; lower damps flapping.
  double health_alpha = 0.2;

  /// Error-rate EWMA at or above which a replica is quarantined (skipped
  /// by reads except as a last resort). Needs health_min_samples
  /// observations first, so one unlucky request cannot quarantine.
  double quarantine_error_rate = 0.5;
  std::size_t health_min_samples = 3;

  /// Quarantine duration: after this many microseconds the replica gets
  /// ONE probationary attempt; success restores it, failure re-quarantines
  /// (this is what keeps a flapping replica from whipsawing the read
  /// order). Measured on the injected clock (SimClock when provided).
  std::uint64_t probation_us = 500'000;
};

/// Per-replica health state, exposed for tests, benches and operators.
struct ReplicaHealth {
  double ewma_latency_us = 0.0;
  double ewma_error = 0.0;  // 0 = perfect, 1 = always failing
  bool quarantined = false;
  std::uint64_t quarantined_at_us = 0;
  std::size_t successes = 0;
  std::size_t failures = 0;
  std::size_t quarantine_trips = 0;
  LatencyHistogram latency;

  /// Composite score, lower = healthier: the error EWMA dominates (a
  /// failing replica is worse than any slow one), latency breaks ties.
  double score() const;
};

/// Byte accounting for anti-entropy pushes (repair-traffic measurement —
/// the differential repair path exists to shrink bytes_full into
/// bytes_delta; see DESIGN.md §15).
struct SyncPushStats {
  std::size_t probes = 0;        // digest probes sent
  std::size_t delta_pushes = 0;  // repairs accepted as anchored deltas
  std::size_t full_pushes = 0;   // repairs pushed as full content
  std::size_t fallbacks = 0;     // delta attempted, refused (412) → full
  std::size_t bytes_delta = 0;   // delta wire + both anchors pushed
  std::size_t bytes_full = 0;    // full-content bytes pushed
};

/// Audit-chain payload riding along an anti-entropy push (DESIGN.md §16).
/// Repair that moves content without its chain leaves the receiver serving
/// a history clients cannot link to their committed heads — a self-made
/// fork — so every sync push carries the donor's chain and witness set.
struct SyncAuditAttachment {
  std::string chain;                   // encoded AuditChain wire ("" = none)
  std::vector<std::string> witnesses;  // encoded witness wires

  bool empty() const { return chain.empty() && witnesses.empty(); }
};

/// Extracts the audit attachment (achain + repeated w fields) from an open
/// reply, for forwarding with a repair push sourced from that replica.
SyncAuditAttachment audit_from_reply(const FormData& reply);

/// Anti-entropy push of (content, rev) to one replica, differential when
/// possible: probes the replica's block digests (cmd=sync&digests=1),
/// sends the §IV delta from its copy to `content` — anchored on the copy
/// the probe named (dbase) and on `content` (dtarget) — when that is
/// smaller, and falls back to the classic full-content cmd=sync when the
/// replica lacks the capability, is quarantined (quarantine exit must be a
/// full validated container), has no copy at all, or refuses the delta
/// (412 — its copy moved between probe and push). Both ReplicatedChannel
/// repair and offline fsck push through this one helper, so the wire
/// behaviour is identical online and offline. `audit`, when non-null,
/// attaches the donor's audit chain and witnesses to whichever push lands.
/// Returns true when the replica accepted the content by either route.
bool push_sync_over(net::Channel& channel, const std::string& target,
                    const std::string& content, const std::string& rev,
                    SyncPushStats* stats = nullptr,
                    const SyncAuditAttachment* audit = nullptr);

class ReplicatedChannel final : public net::Channel {
 public:
  /// Returns true if a read response is acceptable (decrypts/verifies).
  /// An empty validator accepts any 2xx response.
  using Validator = std::function<bool(const net::HttpResponse&)>;

  /// `clock` (optional) drives health timestamps and latency measurement
  /// deterministically; defaults to the process steady clock.
  ReplicatedChannel(std::vector<net::Channel*> replicas,
                    Validator read_validator = {},
                    ReplicationConfig config = {},
                    net::SimClock* clock = nullptr);

  net::HttpResponse round_trip(const net::HttpRequest& request) override;

  /// Anti-entropy sweep: for every document with known-lagging replicas,
  /// fetch the authoritative ciphertext from a healthy replica (validated)
  /// and push it to the laggards. Replenishes retry budgets first. Returns
  /// the number of (document, replica) repairs that succeeded.
  std::size_t repair_all();

  struct Counters {
    std::size_t writes_broadcast = 0;
    std::size_t write_replica_failures = 0;
    std::size_t reads = 0;
    std::size_t read_failovers = 0;   // replicas skipped before success
    std::size_t partial_writes = 0;   // quorum met but some replica missed
    std::size_t quorum_failures = 0;  // write acks below quorum → 502
    std::size_t repairs_attempted = 0;
    std::size_t repairs_succeeded = 0;
    std::size_t quarantines = 0;        // replicas demoted by error EWMA
    std::size_t probations = 0;         // probationary attempts granted
    std::size_t health_reorders = 0;    // reads whose first hop != replica 0
  };
  const Counters& counters() const { return counters_; }

  /// Health state for replica `i` (index into the constructor vector).
  const ReplicaHealth& health(std::size_t i) const { return health_.at(i); }

  /// Repair-traffic byte accounting across all push_sync calls.
  const SyncPushStats& sync_stats() const { return sync_stats_; }

  /// Replica indices in the order reads will try them right now:
  /// non-quarantined by ascending score, then probation-expired
  /// quarantined, then still-quarantined (last resort).
  std::vector<std::size_t> read_order() const;

 private:
  static bool is_read(const net::HttpRequest& request);

  std::uint64_t now_us() const;
  void record_outcome(std::size_t replica, bool ok, std::uint64_t latency_us);

  std::size_t quorum() const;
  void note_lag(const std::string& target,
                const std::vector<std::size_t>& replica_indices);
  /// Validated authoritative state for a document, plus the audit
  /// attachment the donor replica served with it.
  struct Authoritative {
    std::string content;
    std::string rev;
    SyncAuditAttachment audit;
  };

  /// Fetches validated authoritative state for `target` from the first
  /// healthy replica, skipping the indices in `lag`.
  std::optional<Authoritative> fetch_authoritative(
      const std::string& target, const std::map<std::size_t, int>& lag);
  bool push_sync(net::Channel* replica, const std::string& target,
                 const std::string& content, const std::string& rev,
                 const SyncAuditAttachment& audit);
  /// Pushes known-good (content, rev) to every budgeted laggard of
  /// `target`, clearing the ones that took it.
  void push_to_laggards(const std::string& target, const std::string& content,
                        const std::string& rev,
                        const SyncAuditAttachment& audit);
  void repair_target(const std::string& target);

  std::vector<net::Channel*> replicas_;
  Validator read_validator_;
  ReplicationConfig config_;
  net::SimClock* clock_;
  std::vector<ReplicaHealth> health_;
  // target → (replica index → remaining repair budget)
  std::map<std::string, std::map<std::size_t, int>> lagging_;
  Counters counters_;
  SyncPushStats sync_stats_;
};

/// Builds a read validator for encrypted Google-Documents responses: the
/// `content` field of an open reply must be absent/empty or decrypt and
/// verify under `password`.
ReplicatedChannel::Validator gdocs_open_validator(std::string password);

}  // namespace privedit::extension
