#pragma once
// EditJournal — the extension's durable write-ahead log for outgoing
// updates (one journal file per managed document).
//
// The crash window it closes: the mediator applies an edit to its local
// BlockStore mirror, sends the cdelta, and the machine dies before the
// server's ack arrives (or before it is recorded). Without a journal the
// edit exists nowhere the user controls — the server may or may not have
// applied it, and the next open silently adopts whichever happened. With
// the journal, every outgoing update is fsync'd to disk *before* it is
// sent, and recovery replays unacknowledged entries idempotently (revision
// CAS: resend only while the server is still at the entry's base
// revision).
//
// The journal also persists the last-acknowledged (revision, checksum)
// pair, which is the client-side evidence against the §II rollback
// adversary: a server that presents an older revision at open — or a
// different checksum at the same revision — is provably rolling the
// document back (RollbackError), not merely corrupting it.
//
// On-disk format: a sequence of length-and-CRC-framed records,
//
//   [magic u32 "PEWJ"] [payload_len u32 BE] [crc32(payload) u32 BE] [payload]
//
//   payload := type u8 ...
//     0x01 PENDING  u64 base_rev, u8 full_save, u16 checksum_len,
//                   checksum bytes, update bytes (cdelta wire or full
//                   ciphertext when full_save)
//     0x02 ACK      u64 rev, checksum bytes   — acks the oldest pending
//     0x03 BASE     u64 rev, checksum bytes   — last_acked snapshot
//                   (written by reset/compact as the first record)
//     0x04 DROP     (empty)                   — drops the oldest pending
//
// Older journals may open with a 0x05 record (u64 rev, u16 checksum_len,
// checksum bytes, ciphertext container): it loads as BASE, and the
// container it carried is ignored.
//
// Appends are fsync'd; a crash mid-append leaves a torn tail record that
// load detects (short frame or CRC mismatch), truncates, and reports.
// Acknowledged prefixes are garbage-collected by compact(), which rewrites
// the file as BASE + still-pending records via the durable temp+fsync+
// rename sequence. The CRC is framing, not security: the journal lives on
// the user's own disk, inside the trust boundary.

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

namespace privedit::extension {

struct JournalEntry {
  std::uint64_t base_rev = 0;  // server revision the update applies to
  bool full_save = false;      // payload is full ciphertext, not a cdelta
  std::string checksum;        // post-edit checksum of our ciphertext mirror
  std::string update;          // cdelta wire (or full ciphertext document)
};

class EditJournal {
 public:
  /// Opens (creating if absent) the journal at `path`, replaying its
  /// records into memory. A torn tail is truncated off the file and
  /// reported via recovered_torn_tail().
  explicit EditJournal(std::string path);
  ~EditJournal();

  EditJournal(const EditJournal&) = delete;
  EditJournal& operator=(const EditJournal&) = delete;

  /// Durably appends a pending update. Must be called BEFORE the update
  /// is sent — that ordering is the whole point of a write-ahead log.
  void append_pending(const JournalEntry& entry);

  /// The oldest pending update was acknowledged at server revision `rev`.
  void ack_front(std::uint64_t rev, const std::string& checksum);

  /// The oldest pending update is known NOT to have been applied (clean
  /// rejection) or is superseded — forget it.
  void drop_front();

  /// Replaces the whole journal with a fresh baseline (new document, or
  /// post-recovery convergence). Durable.
  void reset(std::uint64_t rev, const std::string& checksum);

  /// Rewrites the file as BASE + pending records, discarding acknowledged
  /// history. Durable. No-op on in-memory state except fd_ churn; throws
  /// StorageError if the journal file cannot be reopened after the
  /// replace.
  void compact();

  const std::deque<JournalEntry>& pending() const { return pending_; }

  struct Acked {
    std::uint64_t rev = 0;
    std::string checksum;
  };
  const std::optional<Acked>& last_acked() const { return last_acked_; }

  /// True when load found (and truncated) a torn tail record.
  bool recovered_torn_tail() const { return recovered_torn_tail_; }

  /// Current on-disk size, for monitoring (offline-queue backpressure) and
  /// the recovery bench. nullopt when the size is UNKNOWN — the journal fd
  /// is gone or fstat failed — which is not the same as an empty file;
  /// backpressure callers must treat unknown as over-limit, not as zero.
  std::optional<std::uint64_t> bytes_on_disk() const;

  const std::string& path() const { return path_; }

 private:
  void load();
  void append_frame(const std::string& payload);

  std::string path_;
  int fd_ = -1;
  std::deque<JournalEntry> pending_;
  std::optional<Acked> last_acked_;
  bool recovered_torn_tail_ = false;
};

}  // namespace privedit::extension
