#pragma once
// DocTable — the storage half of the simulated provider, split out of
// GDocsServer so protocol handling and document storage are separate
// layers (the refactor ROADMAP item 1 needs).
//
// A DocTable owns the in-memory document map, the optional durable Store
// behind it, the per-document version history (with the provider's
// history cap) and the quarantine set. GDocsServer is reduced to protocol
// handling over a DocTable; the shard router reaches the same table for
// migration (export a doc range, drop migrated records) without going
// through the HTTP verbs; fsck/scrub walk the Store as before.
//
// DocTable is NOT internally synchronised — callers serialize access
// (GDocsServer handlers run under serialize_handler or a per-shard lock).

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "privedit/cloud/file_store.hpp"
#include "privedit/enc/audit_record.hpp"

namespace privedit::cloud {

class DocTable {
 public:
  struct Document {
    std::string content;
    std::uint64_t rev = 0;
    std::vector<std::string> history;
    std::uint64_t next_session = 1;

    // Fork-consistency attributes (enc/audit_record wire forms). The
    // server stores these opaquely — it has no audit key, so it can
    // replay what clients produced but never forge a link or witness.
    // The chain is "" (none yet) or canonical encode_chain output, so a
    // save appends its link in O(link) (enc::append_link).
    std::string audit_chain;
    std::size_t audit_links = 0;                   // links in audit_chain
    std::map<std::string, std::string> witnesses;  // client id → witness

    /// Installs `chain`, or drops the stored one when null: the one way
    /// a chain enters a document besides enc::append_link.
    void set_audit_chain(const enc::AuditChain* chain);
  };

  /// Caps the per-document version history (0 = unlimited).
  void set_history_limit(std::size_t n) { history_limit_ = n; }
  std::size_t history_limit() const { return history_limit_; }

  /// Attaches a durable Store, loading every readable record and every
  /// quarantine marker. Returns the ids whose stored record was
  /// unreadable — the caller decides what to do (GDocsServer quarantines
  /// them instead of aborting the boot).
  std::vector<std::string> attach_store(std::unique_ptr<Store> store);

  /// The backing store; nullptr until attach_store.
  Store* store() const { return store_.get(); }

  /// Attaches a sidecar store for the audit attributes (chain heads +
  /// witness records), loading them into the matching documents. Call
  /// AFTER attach_store: a sidecar for an unknown document is dropped.
  /// Unreadable sidecars are dropped too (counted in
  /// audit_restore_skipped()) — losing a chain is detectable client-side,
  /// so it must not take the provider down.
  void attach_audit_store(std::unique_ptr<Store> store);

  /// The audit sidecar store; nullptr until attach_audit_store.
  Store* audit_store() const { return audit_store_.get(); }

  /// Persists a document's audit attributes to the sidecar store (no-op
  /// without one). Propagates StorageError from the backend.
  void persist_audit(const std::string& doc_id, const Document& doc);

  /// Unreadable audit sidecars and chains, plus orphan tip links, dropped
  /// at attach_audit_store time.
  std::size_t audit_restore_skipped() const { return audit_restore_skipped_; }

  Document* find(const std::string& doc_id);
  const Document* find(const std::string& doc_id) const;

  /// The document, created empty if absent.
  Document& obtain(const std::string& doc_id);

  /// Drops the document, its stored record and any quarantine marker.
  /// Returns false if the document did not exist.
  bool erase(const std::string& doc_id);

  std::size_t size() const { return docs_.size(); }
  std::vector<std::string> ids() const;

  /// The underlying ordered map — the scrub cursor walks it in order.
  std::map<std::string, Document>& docs() { return docs_; }
  const std::map<std::string, Document>& docs() const { return docs_; }

  /// Persists one document to the attached store (no-op without one).
  /// Propagates StorageError from the backend.
  void persist(const std::string& doc_id, const Document& doc);

  /// Pushes the current content onto the document's history, pruned to
  /// the history limit.
  void record_history(Document& doc);

  // ----- quarantine (storage integrity) -----

  void quarantine(const std::string& doc_id);
  void unquarantine(const std::string& doc_id);
  bool is_quarantined(const std::string& doc_id) const {
    return quarantined_.contains(doc_id);
  }
  const std::set<std::string>& quarantined() const { return quarantined_; }

 private:
  std::unique_ptr<Store> store_;
  std::unique_ptr<Store> audit_store_;
  std::size_t audit_restore_skipped_ = 0;
  std::map<std::string, Document> docs_;
  std::set<std::string> quarantined_;
  std::size_t history_limit_ = 0;  // 0 = keep everything
};

}  // namespace privedit::cloud
