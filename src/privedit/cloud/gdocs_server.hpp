#pragma once
// Simulated Google Documents service — the substrate substitution for
// docs.google.com (see DESIGN.md §2).
//
// The protocol mirrors what §IV-A reverse-engineered:
//
//   POST /Doc?docID=<id>     application/x-www-form-urlencoded body
//     cmd=create                           → new document + edit session
//     cmd=open                             → content=…&rev=…&session=…
//     session=…&rev=…&docContents=<full>   → replaces the whole document
//                                            (the first save of a session)
//     session=…&rev=…&delta=<delta wire>   → applies the delta server-side
//     session=…&rev=…&delta=<wire>&dbase=<size>:<crc32 hex8>
//                                          → full-state save as the paper's
//                                            cdelta, anchored on the
//                                            container it applies to (412 +
//                                            ack fields on a mismatch →
//                                            client resends docContents)
//     cmd=spellcheck&text=…                → misspelt words (server-side
//                                            feature: needs plaintext!)
//     cmd=export&format=txt                → the stored content verbatim
//     cmd=sync&rev=…&content=…             → replica anti-entropy push:
//                                            adopt content+rev wholesale
//                                            (creates the doc if absent)
//     cmd=sync&digests=1                   → block-digest probe for
//                                            differential repair
//                                            (rev/base/bs/digests; base is
//                                            delta::base_anchor of the copy)
//     cmd=sync&rev=…&delta=<wire>&dbase=<anchor>&dtarget=<anchor>
//                                          → repair push as the §IV delta,
//                                            applied like an anchored save
//                                            (412, nothing changed, when
//                                            dbase misses our copy or the
//                                            result misses dtarget); a sync
//                                            with neither content nor delta
//                                            is a 400
//     cmd=delete                           → drops the document and its
//                                            stored record (quota reclaim)
//     cmd=witness&w=<witness wire>         → stores a client's signed
//                                            chain-head witness (opaque to
//                                            the server; served on open)
//
// Fork-consistency attributes (DESIGN.md §16): every save may carry
// `alink=<audit link wire>` (+ `abase=<hex head>&abaserev=<rev>` declaring
// the chain base when the server holds no chain yet). The server has no
// audit key, so it stores links opaquely — but it does enforce the one
// structural invariant it can see: the link must commit exactly the
// revision the save produces, else 412 with `areason=chain` plus the
// current chain so the client can verify, fast-forward and re-stage.
// Acks, opens and 409 conflict bodies carry `achain=<chain wire>`; opens
// additionally carry every stored witness as repeated `w=` fields.
// cmd=sync pushes replicate `achain` and `w` alongside content, and the
// receiving replica cross-checks overlapping chain heads first — a
// divergent replica pair is equivocation evidence, counted server-side.
//
// Content-update responses are Acks carrying contentFromServer and
// contentFromServerHash — "the current content to the best of the server's
// knowledge" — plus the new revision. Concurrent editors use the hash to
// detect divergence; the extension blanks these fields, which is exactly
// what breaks simultaneous editing in §VII-A.
//
// The malicious-provider surface (raw_content / set_raw_content / history)
// models an adversary with full control of stored data (§II).
//
// Storage-vs-protocol split: GDocsServer is the protocol layer only; all
// document state (map, durable Store, history, quarantine) lives in a
// DocTable (doc_table.hpp). The shard router migrates documents through
// the same table without going through the HTTP verbs.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <functional>

#include "privedit/cloud/doc_table.hpp"
#include "privedit/cloud/file_store.hpp"
#include "privedit/cloud/store_check.hpp"
#include "privedit/enc/audit_record.hpp"
#include "privedit/net/admission.hpp"
#include "privedit/net/http.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::cloud {

class GDocsServer {
 public:
  /// Stored chain length cap: the base rolls forward past pruned links.
  /// Clients only need enough tail to link their committed head to the tip.
  static constexpr std::size_t kAuditChainCap = 512;

  GDocsServer();

  /// The net::Handler entry point.
  net::HttpResponse handle(const net::HttpRequest& request);

  // ----- malicious-provider API (tests, attack examples) -----

  /// Stored content of a document (what a subpoena would obtain).
  std::optional<std::string> raw_content(const std::string& doc_id) const;

  /// Direct tampering with stored content.
  void set_raw_content(const std::string& doc_id, std::string content);

  /// Every content version the server ever stored (providers keep history;
  /// the paper cites Google leaking previous versions).
  const std::vector<std::string>& history(const std::string& doc_id) const;

  /// Durable storage: loads any documents already in `directory` and
  /// persists every mutation there (atomic temp+rename writes). A new
  /// server instance on the same directory models a provider restart.
  /// Documents whose stored record is unreadable are quarantined instead
  /// of aborting the load (see quarantine()).
  void enable_persistence(const std::string& directory);

  /// Same, over an arbitrary Store (a FaultyStore in fault tests). Does
  /// NOT attach an audit sidecar — use enable_audit_persistence.
  void enable_persistence(std::unique_ptr<Store> store);

  /// Attaches a sidecar Store for audit chains + witnesses. The directory
  /// overload of enable_persistence does this automatically (under
  /// `<directory>/.audit`); fault tests inject a FaultyStore here.
  void enable_audit_persistence(std::unique_ptr<Store> store) {
    table_.attach_audit_store(std::move(store));
  }

  /// The backing store; nullptr until enable_persistence.
  Store* store() const { return table_.store(); }

  /// The storage layer itself — migration and recovery go through here.
  DocTable& table() { return table_; }
  const DocTable& table() const { return table_; }

  // ----- quarantine (storage integrity) -----
  //
  // A quarantined document is one the integrity subsystem found damaged
  // with no healthy copy in hand: reads are still served (flagged with an
  // X-Privedit-Quarantine: 1 header; client-side crypto rejects garbage,
  // so damaged ciphertext is never mistaken for the document), but
  // ordinary writes get 503 so edits cannot build on rot. The only way
  // out is a cmd=sync push whose content passes container validation —
  // the replica-repair path — which atomically lifts the quarantine.

  void quarantine(const std::string& doc_id) { table_.quarantine(doc_id); }
  void unquarantine(const std::string& doc_id) { table_.unquarantine(doc_id); }
  bool is_quarantined(const std::string& doc_id) const {
    return table_.is_quarantined(doc_id);
  }
  const std::set<std::string>& quarantined() const {
    return table_.quarantined();
  }

  // ----- online scrubber -----

  struct ScrubConfig {
    /// Documents examined per scrub_step() call.
    std::size_t docs_per_cycle = 4;
    /// When non-zero, handle() runs one scrub_step() every N requests —
    /// piggybacked background scrubbing without a thread.
    std::size_t interval_requests = 0;
    /// Also walk the container framing of each document (bounded by
    /// max_units so huge documents don't stall a request).
    bool verify_container = true;
    std::size_t max_units = 64;
  };

  struct ScrubCounters {
    std::size_t cycles = 0;          // complete passes over the corpus
    std::size_t docs_scrubbed = 0;
    std::size_t clean = 0;
    std::size_t unreadable_records = 0;  // store get() threw
    std::size_t store_mismatches = 0;    // disk record != in-memory doc
    std::size_t container_corrupt = 0;   // framing walk failed (in memory)
    std::size_t repaired_from_memory = 0;
    std::size_t quarantined = 0;
  };

  void enable_scrub(ScrubConfig config) {
    scrub_ = config;
    scrub_enabled_ = true;
  }

  /// Examines the next batch of documents: re-reads each from the store
  /// (while the server runs, its memory is authoritative — a divergent or
  /// unreadable disk record is rot, repaired by re-persisting), and
  /// optionally walks the container framing (corrupt memory has no clean
  /// copy anywhere, so it is quarantined). Returns true when this step
  /// completed a full pass over the corpus.
  bool scrub_step();

  const ScrubCounters& scrub_counters() const { return scrub_counters_; }

  /// Caps the per-document version history at `n` entries (0 = unlimited,
  /// the default). Real providers prune history too; the simulation
  /// harness needs the cap so 100k-op runs don't retain every version.
  void set_history_limit(std::size_t n) { table_.set_history_limit(n); }

  /// Optimistic concurrency control: when enabled, a delta save whose base
  /// revision is stale is REJECTED with 409 (carrying the current content
  /// and revision) instead of being merged server-side. This is what an
  /// encrypted deployment needs — the server cannot merge ciphertext
  /// deltas meaningfully — and what the collaborative mediator retries
  /// against.
  void set_strict_revisions(bool on) { strict_revisions_ = on; }
  bool strict_revisions() const { return strict_revisions_; }

  /// Overload protection: per-client token-bucket admission (keyed on the
  /// X-Privedit-Client header). Refused requests get 503 + Retry-After —
  /// explicit backpressure the client's RetryPolicy understands — before
  /// any command dispatch. Circuit-breaker probes bypass the bucket.
  /// `now_us` defaults to the steady clock; pass the SimClock's reading for
  /// deterministic tests.
  void enable_admission(net::AdmissionConfig config,
                        std::function<std::uint64_t()> now_us = {});

  /// The admission controller; nullptr until enable_admission.
  const net::AdmissionController* admission() const { return admission_.get(); }

  std::size_t document_count() const { return table_.size(); }

  struct Counters {
    std::size_t creates = 0;
    std::size_t opens = 0;
    std::size_t full_saves = 0;
    std::size_t delta_saves = 0;
    std::size_t spellchecks = 0;
    std::size_t exports = 0;
    std::size_t conflicts = 0;
    std::size_t bad_requests = 0;
    std::size_t syncs = 0;     // anti-entropy pushes accepted (cmd=sync)
    std::size_t deletes = 0;   // documents dropped via cmd=delete
    std::size_t admission_rejections = 0;  // 503s from the token bucket
    std::size_t load_quarantined = 0;  // unreadable records found at boot
    std::size_t quarantine_write_rejections = 0;  // 503s on damaged docs
    std::size_t quarantine_repairs = 0;  // validated syncs lifting quarantine
    std::size_t anchor_mismatches = 0;   // 412s: anchored save/sync missed
    std::size_t sync_probes = 0;         // cmd=sync&digests=1 digest reads
    std::size_t delta_syncs = 0;         // repair pushes applied as deltas
    std::size_t witness_stores = 0;      // cmd=witness records accepted
    std::size_t chain_rejections = 0;    // 412s: audit link rev mismatch
    std::size_t equivocations_detected = 0;  // sync chains with divergent heads
  };
  const Counters& counters() const { return counters_; }

 private:
  using Document = DocTable::Document;

  /// The Ack (or, with `status` 409/412, the rejection) carrying the
  /// document's hash and rev, `achain` when non-empty, plus `flag`=`value`
  /// when set.
  net::HttpResponse ack(const Document& doc, std::string_view achain,
                        bool include_content, int status = 200,
                        std::string_view flag = {},
                        std::string_view value = {}) const;
  void scrub_one(const std::string& doc_id, Document& doc);
  net::HttpResponse chain_reject(const Document& doc);
  /// The one save commit: history, new content, ++rev, audit link (sidecar
  /// first), persist, ack (`flag`=1 added when set).
  net::HttpResponse commit(const std::string& doc_id, Document& doc,
                           std::string next,
                           const std::optional<enc::AuditLink>& alink,
                           const FormData& form, bool stale,
                           std::string_view flag = {});
  /// Appends a save's link (rooting the chain at its abase first when
  /// none is stored) and persists the sidecar. Returns the 2xx ack's
  /// one-link tail, or "" when no chain could be rooted.
  std::string store_link(const std::string& doc_id, Document& doc,
                         const enc::AuditLink& link, const FormData& form);
  void adopt_sync_audit(const std::string& doc_id, Document& doc,
                        const FormData& form);

  DocTable table_;
  std::unique_ptr<net::AdmissionController> admission_;
  std::function<std::uint64_t()> admission_now_;
  bool strict_revisions_ = false;
  std::set<std::string> dictionary_;
  bool scrub_enabled_ = false;
  ScrubConfig scrub_;
  ScrubCounters scrub_counters_;
  std::string scrub_cursor_;  // last doc id examined; empty = start over
  std::size_t requests_since_scrub_ = 0;
  Counters counters_;
};

}  // namespace privedit::cloud
