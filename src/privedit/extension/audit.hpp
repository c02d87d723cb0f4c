#pragma once
// DocumentAuditor — the client-side fork-consistency state machine.
//
// enc/audit_record defines the records and MAC math; this class owns the
// policy: what the client commits, when, and how a served history is
// classified. Per managed document the auditor tracks
//
//   * the committed chain head (rev, H) — advanced only through verified
//     chains or acknowledged own saves;
//   * a window of recent (rev, head) pairs, the evidence base for judging
//     peer witnesses;
//   * at most one *staged* link: the link for an in-flight save, durably
//     logged BEFORE the save is sent (same write-ahead discipline as the
//     edit journal) so a crash between send and ack cannot lose the head.
//
// Verdict taxonomy, matching the error types in util/error.hpp:
//   kRollback     — the served chain ends before our committed head: the
//                   server is replaying an old-but-genuine state.
//   kFork         — the served history diverges from (or cannot be linked
//                   to) the head this client committed: substituted or
//                   unverifiable history.
//   kEquivocation — a peer's MACed witness conflicts with a history the
//                   server showed us: proof the server maintains divergent
//                   histories for different clients.
//
// Durability: an optional append-only log (`<doc>.achain`, PEWJ-style
// framing with magic "PEAC") records COMMIT/STAGE/DROP transitions with
// fsync'd appends and torn-tail truncation on load, and is exercised by
// the same crash-at-seam machinery as the journal ("audit.append.*").

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "privedit/enc/audit_record.hpp"
#include "privedit/util/bytes.hpp"

namespace privedit::extension {

enum class AuditVerdict { kOk, kRollback, kFork, kEquivocation };

std::string_view audit_verdict_name(AuditVerdict verdict);

class DocumentAuditor {
 public:
  /// `log_path` empty → memory-only (no crash durability). Otherwise the
  /// log is opened (created if absent) and replayed; a torn tail is
  /// truncated off.
  DocumentAuditor(Bytes audit_key, std::string doc_id, std::string client_id,
                  std::string log_path = {});
  ~DocumentAuditor();

  DocumentAuditor(const DocumentAuditor&) = delete;
  DocumentAuditor& operator=(const DocumentAuditor&) = delete;

  /// True once a committed head exists (reset() ran or the log replayed).
  bool initialized() const { return !committed_head_.empty(); }

  /// Re-baselines at the genesis head for revision `rev` (document
  /// created or re-created). Durable; discards any staged link.
  void reset(std::uint64_t rev);

  /// Adopts an externally verified (rev, head) pair as the committed
  /// state — used when joining a document whose chain was already
  /// verified. Durable.
  void adopt(std::uint64_t rev, ByteView head);

  std::uint64_t committed_rev() const { return committed_rev_; }
  const Bytes& committed_head() const { return committed_head_; }

  /// Computes and durably stages the chain link for a save expected to
  /// land at `rev` (revisions advance by one, so callers pass
  /// committed_rev()+1) binding `crc`, the CRC-32 of the container being
  /// sent. Must be called BEFORE the save goes on the wire. Replaces any
  /// previously staged link.
  enc::AuditLink stage_link(std::uint64_t rev, std::uint32_t crc);

  /// The staged save was acknowledged: its link becomes the committed
  /// head. Durable.
  void commit_staged();

  /// The staged save was cleanly rejected (or superseded): forget it.
  /// Durable. No-op when nothing is staged.
  void drop_staged();

  bool has_staged() const { return staged_.has_value(); }
  const std::optional<enc::AuditLink>& staged() const { return staged_; }

  struct Verification {
    AuditVerdict verdict = AuditVerdict::kOk;
    std::string detail;             // human-readable cause (error message)
    bool staged_resolved = false;   // a staged link was decided either way
    bool staged_landed = false;     // ... and it had in fact been applied
  };

  /// Judges the chain the server served alongside a document at
  /// (`served_rev`, `served_crc` = CRC-32 of the served container).
  /// Resolves a staged link if the chain covers (or excludes) it —
  /// the audit equivalent of the journal's CAS replay. On kOk the
  /// committed head fast-forwards to the chain tip (peer links included;
  /// they verified under the shared key, so they are genuine client
  /// writes) and outstanding peer claims are cross-checked.
  Verification verify_served(const enc::AuditChain& chain,
                             std::uint64_t served_rev,
                             std::uint32_t served_crc);

  /// Judges a 2xx save ack's chain tail (`achain`; nullopt when absent)
  /// in O(1): it must be exactly the committed (rev, head) followed by
  /// the staged link — one link, byte-equal. Anything else is kFork. Run
  /// before commit_staged; it changes no state.
  Verification verify_ack(const std::optional<std::string>& tail) const;

  /// Judges one witness record fetched through the server. A witness
  /// whose MAC fails is *ignored* (returns kOk with a detail; the server
  /// can always inject garbage — only a valid MAC proves anything).
  /// A valid peer witness that conflicts with our own window is
  /// equivocation; one ahead of our head is remembered and checked
  /// against the next verified chain.
  Verification check_witness(const enc::AuditWitness& witness);

  /// Witness record for our committed head, for publishing.
  enc::AuditWitness own_witness() const;

  /// Records that own_witness() for the current committed rev was
  /// successfully stored at the server.
  void note_witness_published() { published_rev_ = committed_rev_; }

  /// Revision of the last witness we know the server accepted.
  const std::optional<std::uint64_t>& published_rev() const {
    return published_rev_;
  }

  /// True when the server's witness set omits (or serves stale) our own
  /// witness even though we published one — selective suppression.
  bool witness_suppressed(
      const std::optional<enc::AuditWitness>& own_served) const;

  /// Head recorded at `rev`, if still in the evidence window.
  std::optional<Bytes> head_at(std::uint64_t rev) const;

  const Bytes& key() const { return key_; }
  const std::string& client_id() const { return client_id_; }

  /// True when load found (and truncated) a torn tail record.
  bool recovered_torn_tail() const { return recovered_torn_tail_; }

 private:
  void load();
  void append_frame(const std::string& payload);
  void log_commit(std::uint64_t rev, const Bytes& head);
  void remember(std::uint64_t rev, const Bytes& head);

  Bytes key_;
  std::string doc_id_;
  std::string client_id_;
  std::string log_path_;
  int fd_ = -1;

  std::uint64_t committed_rev_ = 0;
  Bytes committed_head_;                  // empty until initialized
  std::optional<enc::AuditLink> staged_;
  std::map<std::uint64_t, Bytes> window_;  // rev → head evidence (capped)
  std::map<std::string, enc::AuditWitness> peer_claims_;  // ahead of us
  std::optional<std::uint64_t> published_rev_;
  bool recovered_torn_tail_ = false;
};

}  // namespace privedit::extension
