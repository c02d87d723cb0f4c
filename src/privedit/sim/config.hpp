#pragma once
// SimConfig / SimReport — the reusable run description and result record of
// the deterministic simulation harness (see DESIGN.md §9).
//
// A SimConfig plus a Script (sim/script.hpp) fully determines a run: every
// random choice — generator, scheme nonces, transport jitter, fault
// schedule — derives from `seed`, so a failure reproduces bit-for-bit from
// the printed config/script pair. The config's to_wire()/parse() cover the
// semantically load-bearing knobs and are what the repro command carries;
// host-local paths (work_dir) are deliberately excluded.

#include <cstdint>
#include <string>
#include <string_view>

#include "privedit/enc/types.hpp"
#include "privedit/net/fault.hpp"

namespace privedit::sim {

/// Relative weights of the edit-script generator. Edits are skewed toward
/// block boundaries and document ends because that is where the splice
/// arithmetic (IndexedSkipList spans, re-chunk grouping) has its edge
/// cases; adversary weights are zero unless a phase turns them on.
struct GenWeights {
  double insert = 40;
  double erase = 20;
  double replace = 25;
  double replace_all = 0.5;  // whole-document replace (full-save path)
  double undo = 4;
  double reopen = 1;

  double tamper = 0;     // bit flips + unit swap/drop/replay at the provider
  double rollback = 0;   // serve an older acknowledged state at open
  double fork = 0;       // different bytes at the acknowledged revision
  double crash = 0;      // arm a durability crash seam, then edit
  double store_rot = 0;  // rot the on-disk record, restart the provider, fsck
  double shard_crash = 0;      // kill + restart one shard (sharded runs)
  double shard_rebalance = 0;  // drain a shard out / join it back in

  // Malicious-server adversary (audit=1 runs; see DESIGN.md §16).
  double peer_edit = 0;        // benign second-client write (positive control)
  double equivocate = 0;       // hide a peer write: divergent per-client history
  double witness_suppress = 0; // drop our published chain-head witness
  double replay = 0;           // re-serve a full old (content,rev,chain) tuple

  double empty_bias = 0.06;     // chance an edit degenerates to a no-op
  double boundary_bias = 0.35;  // snap position to a block boundary
  double append_bias = 0.20;    // position = end of document
  std::uint32_t max_edit = 64;  // max delete span / insert code points
};

/// Deliberate SUT mutations used to validate the harness's own detection
/// power (the "does the alarm ring" test): kDropDelete sends every edit
/// with its delete component stripped — the mirror and the server keep the
/// deleted characters, the reference model does not.
enum class Mutation : std::uint8_t {
  kNone = 0,
  kDropDelete = 1,
};

struct SimConfig {
  std::uint64_t seed = 1;
  std::size_t ops = 1000;

  enc::Mode mode = enc::Mode::kRecb;
  std::size_t block_chars = 8;
  std::string password = "sim password";
  std::uint32_t kdf_iterations = 4;  // low on purpose: KDF cost is not SUT

  std::size_t initial_chars = 256;   // document created at step 0
  std::size_t max_doc_chars = 2048;  // inserts are clamped to this

  GenWeights weights;

  bool journal = false;  // client write-ahead journal (needs work_dir)
  bool persist = false;  // provider FileStore persistence (needs work_dir)
  bool delta_saves = false;  // full saves as anchored cdeltas (tag "bd")
  bool audit = false;    // fork-consistency audit chain + witness exchange

  /// Sharded topology: when > 1, the mediator talks to a ShardRouter over
  /// N GDocsServer shards instead of one server, plus `fixture_docs`
  /// unmediated plaintext documents spread across the ring so shard
  /// crash/rebalance ops have a populated corpus to move. Requires
  /// persist=1 (shard crashes rebuild from the per-shard FileStore).
  std::size_t shards = 0;
  std::size_t fixture_docs = 12;
  net::FaultSpec faults;
  bool retry = false;    // RetryChannel between mediator and fault layer

  /// Disconnected operation under scripted outages. `offline` turns on the
  /// mediator's offline queue + circuit breaker; `strict` puts the server
  /// in strict-revision (OCC) mode, which the flush's revision CAS needs to
  /// be duplicate-safe; `op_interval_us` charges the sim clock per op so
  /// outage windows and breaker cool-downs actually elapse (the loopback
  /// transport itself is zero-latency here).
  bool offline = false;
  bool strict = false;
  std::uint64_t op_interval_us = 0;
  net::OutageSchedule outages;

  std::size_t deep_verify_every = 512;  // full decrypt-and-compare cadence
  std::size_t history_limit = 4;        // server version-history cap

  Mutation mutation = Mutation::kNone;

  /// Directory for journal/ and store/ when journal or persist is set.
  /// Not serialised: the repro command supplies its own temp dir.
  std::string work_dir;

  /// `mode=rpc,b=4,seed=7,...` — everything a repro needs except work_dir.
  std::string to_wire() const;
  static SimConfig parse(std::string_view wire);
};

struct SimReport {
  bool ok = true;
  std::string failure_id;   // stable label: "model-equiv", "tamper-undetected", ...
  std::string message;      // human-readable detail
  std::size_t failed_at_op = 0;

  /// State-space coverage counters (EXPERIMENTS.md quotes these).
  struct Coverage {
    std::size_t ops_executed = 0;
    std::size_t inserts = 0;
    std::size_t erases = 0;
    std::size_t replaces = 0;
    std::size_t full_saves = 0;
    std::size_t undos = 0;
    std::size_t reopens = 0;
    std::size_t empty_ops = 0;       // no-op edits that still hit the wire
    std::size_t boundary_snaps = 0;  // positions snapped to block boundaries
    std::size_t unicode_inserts = 0;
    std::size_t special_inserts = 0;
    std::size_t tampers_injected = 0;
    std::size_t tampers_detected = 0;
    std::size_t rollbacks_injected = 0;
    std::size_t rollbacks_detected = 0;
    std::size_t forks_injected = 0;
    std::size_t forks_detected = 0;
    std::size_t crashes_fired = 0;
    std::size_t crashes_recovered = 0;
    std::size_t store_rots_injected = 0;
    std::size_t store_rots_detected = 0;   // fsck findings after the rot
    std::size_t store_rots_repaired = 0;   // store checks clean after repair
    std::size_t shard_crashes = 0;         // shard kill+restart cycles
    std::size_t shard_rebalances = 0;      // drain-out / join-back cycles
    std::size_t docs_migrated = 0;         // docs moved by those rebalances
    std::size_t handoff_rejections = 0;    // writes 503'd mid-migration
    std::size_t transport_errors = 0;
    std::size_t deep_verifies = 0;

    // Differential full saves (bd=1 runs; copied from the mediator).
    std::size_t delta_full_saves = 0;           // anchored cdelta saves acked
    std::size_t delta_full_save_fallbacks = 0;  // 412 → docContents resends
    std::size_t delta_full_save_bytes = 0;      // anchored cdelta bytes sent
    std::size_t full_save_bytes = 0;            // full-container bytes sent

    // Malicious-server adversary (audit=1 runs). Injected counts must
    // equal detected counts at quiesce — zero silent forks.
    std::size_t peer_edits = 0;              // benign client-B writes landed
    std::size_t equivocations_injected = 0;  // forked per-client histories
    std::size_t equivocations_detected = 0;  // ... raised EquivocationError
    std::size_t witness_suppressions_injected = 0;
    std::size_t witness_suppressions_detected = 0;
    std::size_t replays_injected = 0;        // old (content,rev,chain) tuples
    std::size_t replays_detected = 0;        // ... raised RollbackError
    std::size_t audit_links_committed = 0;   // copied from the mediator
    std::size_t audit_chain_retries = 0;     // chain-412 rebase retries
    std::size_t witnesses_published = 0;

    // Disconnected operation (offline=1 runs; copied from the mediator).
    std::size_t offline_entered = 0;     // documents flipped offline
    std::size_t offline_acks = 0;        // edits absorbed locally
    std::size_t offline_flushes = 0;     // composed updates replayed
    std::size_t offline_rebases = 0;     // flushes rebased over server edits
    std::size_t offline_dedupes = 0;     // ack-lost duplicates suppressed
    std::size_t offline_backpressure = 0;  // 503s at the queue cap
    std::size_t breaker_trips = 0;
    std::size_t outage_faults = 0;       // requests killed by the schedule
  } cov;

  std::size_t final_doc_chars = 0;
  std::uint64_t final_rev = 0;

  /// Set on failure: the config/script pair and a one-line repro command.
  std::string config_wire;
  std::string script_wire;
  std::string repro;
};

}  // namespace privedit::sim
