#pragma once
// GDocsMediator — the browser extension's request-mediation core (Fig 2).
//
// Sits between the editor client and the network as a net::Channel
// decorator. Outgoing requests containing docContents are replaced with the
// full ciphertext; requests containing delta are replaced with the
// transformed cdelta; *everything unrecognised is dropped* ("drop all
// unknown requests"). Incoming Acks have contentFromServer blanked and
// contentFromServerHash zeroed — the substitution §IV-A found the client
// tolerates; open responses are decrypted before the client sees them.
//
// Malicious-client countermeasures (§VI-B), all off by default except
// canonicalisation (which the transform performs inherently):
//   rediff        recompute the delta from the two document versions
//                 instead of trusting the client's op sequence
//   pad_bucket    quantise the outgoing body length to a bucket by
//                 appending no-op delta operations
//   random_delay  add uniform random delay to outgoing updates (charged to
//                 the simulated clock)

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "privedit/delta/delta.hpp"
#include "privedit/enc/types.hpp"
#include "privedit/extension/audit.hpp"
#include "privedit/extension/journal.hpp"
#include "privedit/extension/offline.hpp"
#include "privedit/extension/session.hpp"
#include "privedit/net/breaker.hpp"
#include "privedit/net/transport.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::extension {

struct MediatorConfig {
  std::string password = "correct horse battery staple";
  enc::SchemeConfig scheme;
  RngFactory rng_factory = os_rng_factory();

  bool rediff = false;
  std::size_t pad_bucket = 0;          // 0 = off; else bytes
  std::uint64_t random_delay_us = 0;   // 0 = off; else uniform [0, max]

  /// Differential full saves (DESIGN.md §15): a docContents save is sent
  /// as the paper's cdelta (§IV-B) — the new container is derived
  /// incrementally from the plaintext diff, so unedited blocks stay
  /// byte-identical — anchored on the container the mirror held before the
  /// edit (`delta=…&dbase=<size>:<crc32>`). A 412 from the server (its copy
  /// is not what we thought) falls back to the plain full save. Off by
  /// default. Note the trade-off the paper's §VI-B mitigations care about:
  /// a delta-sized message leaks more about the edit than a constant-size
  /// full save — combine with pad_bucket when that matters.
  bool delta_full_saves = false;

  /// Collaborative editing through the untrusted server — the capability
  /// §VII-A reports as broken and defers to SPORC. Requires the server's
  /// strict-revision (OCC) mode: when a save is rejected as stale, the
  /// mediator decrypts the authoritative ciphertext from the 409, rebases
  /// the local edit with Delta::transform, and retries; the final ack is
  /// rewritten with the merged *plaintext* (and a matching hash) so the
  /// unmodified client adopts it. The server still never sees plaintext.
  bool collaborative = false;
  int max_rebase_retries = 3;

  /// Durable write-ahead journal (extension/journal.hpp). When non-empty,
  /// every outgoing update is fsync'd to `<journal_dir>/<hex(doc)>.wal`
  /// before it is sent; on open the mediator replays unacknowledged
  /// entries (idempotent via revision CAS) and verifies the server has
  /// not rolled the document back past the last acknowledged revision
  /// (RollbackError otherwise). Empty = journaling off.
  std::string journal_dir;

  /// Client identity stamped on every upstream request as the
  /// X-Privedit-Client header — the key server-side admission buckets and
  /// the shard router's tenant accounting both meter. The label is pure
  /// routing metadata (it identifies an account, not the plaintext);
  /// empty = unlabeled (the server's shared "anon" bucket/tenant).
  std::string client_id;

  /// Fork-consistency audit chain (DESIGN.md §16): every save commits a
  /// keyed hash-chain link the server stores opaquely but cannot forge;
  /// opens verify the served chain against this client's committed head
  /// and classify any divergence — RollbackError (old-but-genuine state),
  /// ForkError (substituted or unverifiable history), EquivocationError
  /// (proof the server maintains different histories for different
  /// clients, via SUNDR-style signed chain-head witnesses exchanged
  /// through the server itself). When journal_dir is set the committed
  /// head is durable (`<journal_dir>/<hex(doc)>.achain`), so detection
  /// survives client crashes; without it the auditor is memory-only.
  bool audit = false;

  /// Publish our chain-head witness every Nth committed save (opens
  /// always re-publish when the head advanced). Bounds the audit
  /// overhead on the save path; 0 disables save-path publishing.
  int witness_interval = 8;

  /// Disconnected operation (extension/offline.hpp): when enabled, a save
  /// whose transport fails flips the document offline — edits keep flowing
  /// into the local mirror, are composed into one pending update, and are
  /// acknowledged locally; a circuit breaker gates reconnect probes; the
  /// first successful probe replays (and if needed rebases) the composed
  /// update. While enabled the mediator also owns the revision field on
  /// the wire, so the editor's view of revisions may run ahead of the
  /// server's during an outage.
  OfflineConfig offline;
};

class GDocsMediator final : public net::Channel {
 public:
  GDocsMediator(net::Channel* upstream, MediatorConfig config,
                net::SimClock* clock = nullptr);

  net::HttpResponse round_trip(const net::HttpRequest& request) override;

  struct Counters {
    std::size_t full_saves_encrypted = 0;
    std::size_t deltas_transformed = 0;
    std::size_t opens_decrypted = 0;
    std::size_t acks_blanked = 0;
    std::size_t requests_blocked = 0;
    std::size_t passthrough_unmanaged = 0;
    std::size_t rebases = 0;  // collaborative conflict rebases performed

    // Differential full saves (all zero unless delta_full_saves).
    std::size_t delta_full_saves = 0;           // anchored cdelta saves acked
    std::size_t delta_full_save_fallbacks = 0;  // 412 → resent as docContents
    std::size_t delta_full_save_bytes = 0;      // anchored cdelta bytes sent
    std::size_t full_save_bytes = 0;            // full-container bytes sent

    // Fork-consistency audit (all zero unless audit).
    std::size_t audit_links_committed = 0;  // chain links acked or resolved
    std::size_t audit_chain_retries = 0;    // 412 areason=chain re-stages
    std::size_t audit_rollbacks = 0;        // RollbackError from the chain
    std::size_t audit_forks = 0;            // ForkError raised
    std::size_t audit_equivocations = 0;    // EquivocationError raised
    std::size_t witnesses_published = 0;    // cmd=witness stores acked
    std::size_t witness_suppressions = 0;   // our published witness vanished

    // Write-ahead journal & recovery (all zero when journal_dir is empty).
    std::size_t journal_appends = 0;     // updates journalled before send
    std::size_t journal_replays = 0;     // unacked entries resent at open
    std::size_t journal_drops = 0;       // entries found applied/rejected
    std::size_t torn_tails_recovered = 0;
    std::size_t rollbacks_detected = 0;  // RollbackError raised at open
    std::size_t ack_checksum_mismatches = 0;  // server hash != our mirror

    // Disconnected operation (all zero unless offline.enabled).
    std::size_t offline_entered = 0;       // docs flipped offline
    std::size_t offline_acks = 0;          // edits acknowledged locally
    std::size_t offline_backpressure = 0;  // 503s: queue cap reached
    std::size_t offline_flushes = 0;       // composed updates replayed
    std::size_t offline_flush_edits = 0;   // edits released by flushes
    std::size_t offline_dedupes = 0;       // flush found update applied
    std::size_t offline_rebases = 0;       // flush rebased over server edits
    std::size_t offline_opens_local = 0;   // opens served from the mirror
    std::size_t breaker_short_circuits = 0;  // sends refused by the breaker
  };
  const Counters& counters() const { return counters_; }

  /// The extension's plaintext mirror for a managed document.
  std::optional<std::string> managed_plaintext(const std::string& doc_id) const;

  /// The extension's ciphertext container for a managed document — the
  /// bytes a converged server must hold verbatim (the sim's delta-wire
  /// phase asserts exactly this after a quiesce). Serialised from the
  /// scheme, not read from the session's container(), so comparing the two
  /// checks the cache.
  std::optional<std::string> managed_ciphertext(const std::string& doc_id) const;

  /// The document's session; nullptr when it has none.
  const DocumentSession* session(const std::string& doc_id) const;

  /// Scheme statistics for a managed document (blow-up, block counts, ...).
  std::optional<enc::SchemeStats> managed_stats(const std::string& doc_id) const;

  /// True while the document has a pending offline queue.
  bool offline_active(const std::string& doc_id) const;

  /// Edits currently queued offline for the document.
  std::size_t offline_queued(const std::string& doc_id) const;

  /// Reconnect probe: if the document is offline, attempts to replay the
  /// composed update (subject to the circuit breaker — at most one wire
  /// request per cool-down while the breaker is open). Returns true when
  /// the document is (back) online. Also invoked implicitly on every
  /// editor request for an offline document.
  bool try_flush(const std::string& doc_id);

  /// The upstream circuit breaker; nullptr unless offline.enabled.
  const net::CircuitBreaker* breaker() const { return breaker_.get(); }

 private:
  net::HttpResponse blocked(const std::string& why);
  void blank_ack_fields(net::HttpResponse& response);
  void apply_outgoing_mitigations(std::string& form_body);

  /// All upstream traffic funnels through here: applies the circuit
  /// breaker (when offline.enabled) so a dead endpoint is short-circuited
  /// locally instead of hammered.
  net::HttpResponse send_upstream(const net::HttpRequest& request);

  /// Replaces the journal's pending entry with the current composed
  /// offline update (at most one offline entry is ever pending).
  void journal_offline_entry(const std::string& doc_id, const OfflineQueue& q);

  /// Lazily opens the document's journal; nullptr when journaling is off.
  EditJournal* journal_for(const std::string& doc_id);

  /// Crash recovery at open: rollback/fork detection against the journal's
  /// last-acknowledged (rev, checksum), then idempotent replay of pending
  /// entries (revision CAS), re-fetching the document if anything was
  /// replayed. Throws RollbackError on a §II rollback.
  net::HttpResponse recover_open(const std::string& doc_id,
                                 const net::HttpRequest& request,
                                 net::HttpResponse resp);

  /// Settles the oldest pending journal entry against a save response:
  /// ack on 2xx (recording the new revision), drop on a clean rejection.
  void settle_journal(EditJournal& journal, const net::HttpResponse& resp,
                      std::uint64_t base_rev, const std::string& checksum);

  /// One outgoing save. The verbs — full save, delta save, offline flush —
  /// build it and say how to rebuild it after a rejection; send_update
  /// does everything else.
  struct Update {
    FormData form;           // wire form; send_update fills rev and alink
    bool full_save = false;  // carries (or anchors) a whole container
    bool flush = false;      // replay of the composed offline update
    std::string container;   // full saves: the container sent or anchored
    /// Delta saves: the edit's inverse, so applying it to the session's
    /// plaintext gives the pre-edit text a rebase or an offline flip needs.
    /// Empty (identity) for full saves.
    delta::Delta undo;
    delta::Delta plain;      // delta saves: the edit and its cdelta, as the
    delta::Delta cipher;     // offline queue composes them
    /// Re-targets the update at a chain 412's or 409's content and rev;
    /// false ends the loop. Unset: resend unchanged under a fresh link.
    std::function<bool(const FormData& rejection)> rebuild;
  };

  /// The one save path: substitutes the offline-mode revision, stages the
  /// audit link, appends to the journal, sends, flips the document offline
  /// on a transport failure, rebuilds after a chain 412 or a 409, falls
  /// back to docContents after an anchor 412, settles the journal and the
  /// link, and keeps the editor/server revision books.
  net::HttpResponse send_update(const std::string& doc_id,
                                const std::string& target, Update& u);

  /// Stages the chain link committing `rev` to the container with CRC
  /// `crc` and attaches it, with the head it extends, to `form`. A `crc`
  /// of 0 (container unknown) reuses a link already staged for `rev`.
  void stage_link(DocumentAuditor& auditor, FormData& form, std::uint64_t rev,
                  std::uint32_t crc);

  /// Commits the staged link after a 2xx whose chain tail checks out
  /// (returns true), or drops it after a clean rejection. A missing or
  /// wrong tail raises ForkError and leaves the link staged: whether the
  /// save landed is for the next open's chain to say.
  bool settle_link(const std::string& doc_id, DocumentAuditor* auditor,
                   const net::HttpResponse& resp);

  /// Lazily constructs the document's auditor; nullptr when audit is off.
  /// The committed-head log lives next to the journal when journal_dir is
  /// set (memory-only otherwise).
  DocumentAuditor* auditor_for(const std::string& doc_id);

  /// Maps a non-kOk verdict to its typed error (counting it first).
  void raise_audit_verdict(const std::string& doc_id,
                           const DocumentAuditor::Verification& v);

  /// Verifies the chain a save rejection (409 / 412 areason=chain) served
  /// and fast-forwards the auditor — a retry's link must extend the NEW
  /// tip, or the whole chain becomes unverifiable for every client.
  void audit_adopt_served(const std::string& doc_id, DocumentAuditor& auditor,
                          const FormData& body);

  /// Open-time fork-consistency check: verifies the served chain against
  /// our committed head (first contact adopts after standalone
  /// verification), judges every served witness, detects suppression of
  /// our own, and re-publishes when our head advanced. Throws
  /// RollbackError / ForkError / EquivocationError.
  void audit_check_open(const std::string& doc_id, const std::string& target,
                        const FormData& reply, const std::string& content);

  /// Stores our signed chain-head witness at the server (best-effort).
  void publish_witness(const std::string& target, DocumentAuditor& auditor);

  /// publish_witness, rate-limited to every witness_interval revisions.
  void maybe_publish_witness(const std::string& target,
                             DocumentAuditor& auditor);

  net::Channel* upstream_;
  MediatorConfig config_;
  net::SimClock* clock_;
  std::unique_ptr<RandomSource> mitigation_rng_;
  std::map<std::string, DocumentSession> sessions_;
  std::map<std::string, std::unique_ptr<EditJournal>> journals_;
  std::set<std::string> unmanaged_;  // legacy plaintext docs, passed through
  std::unique_ptr<net::CircuitBreaker> breaker_;  // offline.enabled only
  std::map<std::string, OfflineQueue> offline_;
  std::map<std::string, std::uint64_t> server_rev_;  // truth from acks/opens
  std::map<std::string, std::uint64_t> editor_rev_;  // what the editor saw
  std::map<std::string, std::unique_ptr<DocumentAuditor>> auditors_;
  Counters counters_;
};

/// BespinMediator — wraps the PUT/GET whole-file protocol (§III): PUT
/// bodies are encrypted, GET responses decrypted. Unknown paths/methods
/// are dropped.
class BespinMediator final : public net::Channel {
 public:
  BespinMediator(net::Channel* upstream, MediatorConfig config);

  net::HttpResponse round_trip(const net::HttpRequest& request) override;

  std::size_t blocked_count() const { return blocked_; }

 private:
  net::Channel* upstream_;
  MediatorConfig config_;
  std::map<std::string, DocumentSession> sessions_;  // per file path
  std::size_t blocked_ = 0;
};

/// BuzzwordMediator — encrypts the text inside every <textRun> element of
/// POSTed XML and decrypts it again on GET (§III). The document structure
/// (markup) stays visible; only user text is protected, matching the
/// paper's description.
class BuzzwordMediator final : public net::Channel {
 public:
  BuzzwordMediator(net::Channel* upstream, MediatorConfig config);

  net::HttpResponse round_trip(const net::HttpRequest& request) override;

  std::size_t blocked_count() const { return blocked_; }

 private:
  net::Channel* upstream_;
  MediatorConfig config_;
  std::map<std::string, DocumentSession> sessions_;  // per doc id
  std::size_t blocked_ = 0;
};

}  // namespace privedit::extension
