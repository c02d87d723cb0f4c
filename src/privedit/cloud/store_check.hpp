#pragma once
// Offline store checking — the fsck half of the storage-integrity
// subsystem (the online half is GDocsServer's scrubber; the repair
// orchestration across replicas lives in extension/fsck.hpp, which reuses
// the cmd=sync anti-entropy path).
//
// check_store walks every document of a Store and classifies it:
//
//   clean       — record readable, container framing (and, when a deep
//                 validator is supplied, the full decrypt) passes, and the
//                 journal anchor (when known) matches.
//   repairable  — something is wrong but a healthy replica can heal it
//                 byte-identically through cmd=sync: unreadable record,
//                 corrupt container framing, failed decrypt, or a stored
//                 revision behind / diverged from the last-acknowledged
//                 (rev, checksum) anchor the client's journal holds.
//   quarantine  — assigned by the repair orchestrator when every replica
//                 is bad; the checker itself only ever reports repairable,
//                 since it sees one store at a time.
//
// Modelled on boxbackup's BackupStoreCheck account walk: enumerate every
// on-disk object, verify structure against what the metadata promises,
// and emit typed findings a fix pass can act on.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "privedit/cloud/file_store.hpp"

namespace privedit::cloud {

enum class FindingKind : std::uint8_t {
  kUnreadableRecord,   // get() threw: torn/truncated file or corrupt rev line
  kContainerCorrupt,   // looks like a container but the framing walk fails
  kDecryptFailed,      // container parses but the deep validator rejects it
  kRollback,           // stored rev behind the journal's last-acked anchor
  kFork,               // anchor rev matches but the ciphertext checksum differs
  kMissing,            // expected (anchored or replica-known) doc absent here
  kChainBreak,         // audit chain malformed or inconsistent with the record
};

std::string_view finding_kind_name(FindingKind kind);

enum class Disposition : std::uint8_t { kClean, kRepairable, kQuarantine };

struct Finding {
  std::string doc_id;
  FindingKind kind = FindingKind::kUnreadableRecord;
  Disposition disposition = Disposition::kRepairable;
  std::string detail;
};

/// The client-side evidence fsck verifies stored state against: the
/// journal's last-acknowledged (revision, ciphertext checksum) pair.
struct Anchor {
  std::uint64_t rev = 0;
  std::string checksum;  // crypto::content_hash16 of the acked ciphertext
};

struct CheckConfig {
  /// Per-document anchors (doc id -> last acked state). Docs without an
  /// anchor get structural checks only. Anchored docs absent from the
  /// store are reported as kMissing.
  std::map<std::string, Anchor> anchors;

  /// Full cryptographic validation of a stored container (e.g. "does it
  /// decrypt under the password"); empty = structural checks only. Kept a
  /// std::function so this layer needs no dependency on the extension's
  /// DocumentSession.
  std::function<bool(const std::string& content)> deep_validate;

  /// Per-document audit chains (doc id -> encoded AuditChain wire), from
  /// the store's `.audit` sidecar or the server's DocTable. The checker
  /// holds no audit key, so it verifies only what structure promises: the
  /// chain decodes, revisions strictly ascend from the base, the tip
  /// speaks for exactly the stored revision, and the tip link's CRC (when
  /// bound — 0 is the journal-replay "unbound" sentinel) matches the
  /// stored container. Any violation is a kChainBreak finding: stored
  /// history a client could never link to, grounds for quarantine when no
  /// replica holds a verifiable copy.
  std::map<std::string, std::string> chains;

  /// Upper bound on container units walked per document (0 = all). The
  /// online scrubber sets this to bound per-request work; fsck leaves it 0.
  std::size_t max_units = 0;
};

struct CheckReport {
  std::vector<Finding> findings;
  std::size_t docs_checked = 0;
  std::size_t clean = 0;
  std::set<std::string> quarantined;  // ids carrying a quarantine marker

  bool store_clean() const { return findings.empty(); }
  std::size_t count(FindingKind kind) const;
  /// Doc ids with at least one finding, deduplicated.
  std::set<std::string> dirty_docs() const;
};

/// Validates one record's content against `config` (container framing,
/// optional deep validation, optional anchor), appending findings for
/// `doc_id` to `out`. Returns true when the content is clean. Shared by
/// check_store and the online scrubber.
bool check_record(const std::string& doc_id, const Store::Record& record,
                  const CheckConfig& config, std::vector<Finding>* out);

/// Walks every document of `store` (including unreadable ones) plus every
/// anchored id, classifying each. Never throws for content-level problems
/// — they become findings; only store-level I/O failures propagate.
CheckReport check_store(const Store& store, const CheckConfig& config = {});

/// Opens `directory` as a FileStore (sweeping stale temps) and checks it.
/// `swept` (optional) receives the number of orphan *.tmp files discarded.
CheckReport check_directory(const std::string& directory,
                            const CheckConfig& config = {},
                            std::size_t* swept = nullptr);

}  // namespace privedit::cloud
