#include "privedit/extension/audit.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "privedit/util/crashpoint.hpp"
#include "privedit/util/crc32.hpp"
#include "privedit/util/error.hpp"

namespace privedit::extension {
namespace {

constexpr std::uint32_t kMagic = 0x50454143u;  // "PEAC"
constexpr std::size_t kFrameHeader = 12;       // magic + len + crc
constexpr std::size_t kHeadSize = 32;
constexpr std::size_t kWindowCap = 128;

constexpr std::uint8_t kCommit = 0x01;  // u64 rev, head
constexpr std::uint8_t kStage = 0x02;   // u64 rev, u32 crc, head
constexpr std::uint8_t kDrop = 0x03;    // (empty)

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v >> 24));
  out.push_back(static_cast<char>(v >> 16));
  out.push_back(static_cast<char>(v >> 8));
  out.push_back(static_cast<char>(v));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

std::uint32_t get_u32(std::string_view in, std::size_t at) {
  return (static_cast<std::uint32_t>(static_cast<unsigned char>(in[at])) << 24) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[at + 1])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[at + 2])) << 8) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[at + 3]));
}

std::uint64_t get_u64(std::string_view in, std::size_t at) {
  return (static_cast<std::uint64_t>(get_u32(in, at)) << 32) |
         get_u32(in, at + 4);
}

std::string frame(const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeader + payload.size());
  put_u32(out, kMagic);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(as_bytes(payload)));
  out += payload;
  return out;
}

[[noreturn]] void raise(const std::string& what) {
  throw Error(ErrorCode::kState,
              "DocumentAuditor: " + what + ": " + std::strerror(errno));
}

}  // namespace

std::string_view audit_verdict_name(AuditVerdict verdict) {
  switch (verdict) {
    case AuditVerdict::kOk:
      return "ok";
    case AuditVerdict::kRollback:
      return "rollback";
    case AuditVerdict::kFork:
      return "fork";
    case AuditVerdict::kEquivocation:
      return "equivocation";
  }
  return "unknown";
}

DocumentAuditor::DocumentAuditor(Bytes audit_key, std::string doc_id,
                                 std::string client_id, std::string log_path)
    : key_(std::move(audit_key)),
      doc_id_(std::move(doc_id)),
      client_id_(std::move(client_id)),
      log_path_(std::move(log_path)) {
  if (log_path_.empty()) return;
  fd_ = ::open(log_path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) raise("cannot open " + log_path_);
  load();
}

DocumentAuditor::~DocumentAuditor() {
  if (fd_ >= 0) ::close(fd_);
}

void DocumentAuditor::load() {
  std::string raw;
  {
    char buf[64 * 1024];
    ssize_t n;
    while ((n = ::read(fd_, buf, sizeof buf)) > 0) {
      raw.append(buf, static_cast<std::size_t>(n));
    }
    if (n < 0) raise("cannot read " + log_path_);
  }

  std::size_t good = 0;
  std::size_t at = 0;
  while (at + kFrameHeader <= raw.size()) {
    if (get_u32(raw, at) != kMagic) break;
    const std::size_t len = get_u32(raw, at + 4);
    if (at + kFrameHeader + len > raw.size()) break;  // short tail
    const std::string_view payload(raw.data() + at + kFrameHeader, len);
    if (get_u32(raw, at + 8) != crc32(as_bytes(payload)) || payload.empty()) {
      break;  // torn or rotted record
    }
    const std::uint8_t type = static_cast<std::uint8_t>(payload[0]);
    bool parsed = true;
    switch (type) {
      case kCommit: {
        if (payload.size() != 1 + 8 + kHeadSize) { parsed = false; break; }
        committed_rev_ = get_u64(payload, 1);
        committed_head_.assign(payload.begin() + 9, payload.end());
        remember(committed_rev_, committed_head_);
        // A commit at or past the staged rev supersedes the stage.
        if (staged_ && staged_->rev <= committed_rev_) staged_.reset();
        break;
      }
      case kStage: {
        if (payload.size() != 1 + 8 + 4 + kHeadSize) { parsed = false; break; }
        enc::AuditLink link;
        link.rev = get_u64(payload, 1);
        link.crc = get_u32(payload, 9);
        link.client = client_id_;
        link.head.assign(payload.begin() + 13, payload.end());
        staged_ = std::move(link);
        break;
      }
      case kDrop:
        staged_.reset();
        break;
      default:
        parsed = false;
        break;
    }
    if (!parsed) break;
    at += kFrameHeader + len;
    good = at;
  }

  if (good < raw.size()) {
    recovered_torn_tail_ = true;
    if (::ftruncate(fd_, static_cast<off_t>(good)) != 0) {
      raise("cannot truncate torn tail of " + log_path_);
    }
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) raise("cannot seek " + log_path_);
}

void DocumentAuditor::append_frame(const std::string& payload) {
  if (fd_ < 0) return;  // memory-only auditor
  const std::string bytes = frame(payload);
  CrashPoints::reach("audit.append.before_write");
  // Two half-writes so an armed crash between them leaves a torn frame.
  const std::size_t half = bytes.size() / 2;
  std::size_t done = 0;
  auto write_span = [&](std::size_t upto) {
    while (done < upto) {
      const ssize_t n = ::write(fd_, bytes.data() + done, upto - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        raise("cannot append to " + log_path_);
      }
      done += static_cast<std::size_t>(n);
    }
  };
  write_span(half);
  CrashPoints::reach("audit.append.torn");
  write_span(bytes.size());
  CrashPoints::reach("audit.append.before_fsync");
  if (::fsync(fd_) != 0) raise("cannot fsync " + log_path_);
}

void DocumentAuditor::log_commit(std::uint64_t rev, const Bytes& head) {
  std::string payload;
  payload.push_back(static_cast<char>(kCommit));
  put_u64(payload, rev);
  payload.append(head.begin(), head.end());
  append_frame(payload);
}

void DocumentAuditor::remember(std::uint64_t rev, const Bytes& head) {
  window_[rev] = head;
  while (window_.size() > kWindowCap) window_.erase(window_.begin());
}

void DocumentAuditor::reset(std::uint64_t rev) {
  if (fd_ >= 0) {
    if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) {
      raise("cannot reset " + log_path_);
    }
  }
  committed_rev_ = rev;
  committed_head_ = enc::genesis_head(key_, doc_id_);
  staged_.reset();
  window_.clear();
  peer_claims_.clear();
  published_rev_.reset();
  remember(committed_rev_, committed_head_);
  log_commit(committed_rev_, committed_head_);
}

void DocumentAuditor::adopt(std::uint64_t rev, ByteView head) {
  committed_rev_ = rev;
  committed_head_.assign(head.begin(), head.end());
  staged_.reset();
  remember(committed_rev_, committed_head_);
  log_commit(committed_rev_, committed_head_);
}

enc::AuditLink DocumentAuditor::stage_link(std::uint64_t rev,
                                           std::uint32_t crc) {
  if (!initialized()) {
    throw Error(ErrorCode::kState, "DocumentAuditor: stage before reset");
  }
  enc::AuditLink link;
  link.rev = rev;
  link.crc = crc;
  link.client = client_id_;
  link.head = enc::chain_head(key_, committed_head_, rev, crc, client_id_);

  std::string payload;
  payload.push_back(static_cast<char>(kStage));
  put_u64(payload, rev);
  put_u32(payload, crc);
  payload.append(link.head.begin(), link.head.end());
  append_frame(payload);

  staged_ = link;
  return link;
}

void DocumentAuditor::commit_staged() {
  if (!staged_) {
    throw Error(ErrorCode::kState, "DocumentAuditor: commit with no stage");
  }
  committed_rev_ = staged_->rev;
  committed_head_ = staged_->head;
  remember(committed_rev_, committed_head_);
  log_commit(committed_rev_, committed_head_);
  staged_.reset();
}

void DocumentAuditor::drop_staged() {
  if (!staged_) return;
  std::string payload(1, static_cast<char>(kDrop));
  append_frame(payload);
  staged_.reset();
}

DocumentAuditor::Verification DocumentAuditor::verify_served(
    const enc::AuditChain& chain, std::uint64_t served_rev,
    std::uint32_t served_crc) {
  Verification v;
  if (!initialized()) {
    throw Error(ErrorCode::kState, "DocumentAuditor: verify before reset");
  }

  if (!enc::verify_chain(key_, chain)) {
    v.verdict = AuditVerdict::kFork;
    v.detail = "audit chain fails verification (forged or spliced link)";
    return v;
  }

  // The chain must speak for exactly the state served with it.
  if (chain.tip_rev() != served_rev) {
    v.verdict = served_rev < committed_rev_ ? AuditVerdict::kRollback
                                            : AuditVerdict::kFork;
    v.detail = "served rev " + std::to_string(served_rev) +
               " but chain tip is " + std::to_string(chain.tip_rev());
    return v;
  }
  // crc 0 is the "unbound" sentinel: a journal replay of a delta entry
  // cannot know the resulting container's CRC. The link itself is still
  // MAC-protected — an attacker cannot *mint* an unbound link, only
  // replay one at its original chain position, which the rev checks and
  // the container's own crypto cover.
  if (!chain.links.empty() && chain.links.back().crc != 0 &&
      chain.links.back().crc != served_crc) {
    v.verdict = AuditVerdict::kFork;
    v.detail = "served container CRC does not match the chain tip";
    return v;
  }

  // Prefix compatibility with our committed head.
  if (chain.base_rev > committed_rev_) {
    v.verdict = AuditVerdict::kFork;
    v.detail = "chain pruned past our committed rev " +
               std::to_string(committed_rev_);
    return v;
  }
  const std::optional<Bytes> ours = chain.head_at(committed_rev_);
  if (!ours) {
    if (chain.tip_rev() < committed_rev_) {
      v.verdict = AuditVerdict::kRollback;
      v.detail = "chain ends at rev " + std::to_string(chain.tip_rev()) +
                 " before our committed rev " + std::to_string(committed_rev_);
    } else {
      v.verdict = AuditVerdict::kFork;
      v.detail = "chain skips our committed rev " +
                 std::to_string(committed_rev_);
    }
    return v;
  }
  if (*ours != committed_head_) {
    v.verdict = AuditVerdict::kFork;
    v.detail = "chain head at rev " + std::to_string(committed_rev_) +
               " differs from the head this client committed";
    return v;
  }

  // Resolve a staged (in-flight) link — the audit CAS replay: the save
  // landed iff the verified chain contains its exact head.
  if (staged_) {
    const std::optional<Bytes> at = chain.head_at(staged_->rev);
    if (at && *at == staged_->head) {
      v.staged_resolved = true;
      v.staged_landed = true;
      staged_.reset();  // fast-forward below commits it
    } else if (!at && chain.tip_rev() < staged_->rev) {
      drop_staged();  // save never landed; caller may re-stage on resend
      v.staged_resolved = true;
    } else {
      // The chain moved past (or replaced) the rev our save targeted
      // with someone else's link: our acknowledged-or-inflight write
      // was discarded from this history.
      v.verdict = AuditVerdict::kFork;
      v.detail = "chain covers rev " + std::to_string(staged_->rev) +
                 " with a different head than our in-flight save";
      return v;
    }
  }

  // Cross-check peer claims that were ahead of us when witnessed.
  for (auto it = peer_claims_.begin(); it != peer_claims_.end();) {
    const enc::AuditWitness& claim = it->second;
    if (claim.rev > chain.tip_rev()) {
      ++it;  // still ahead; keep waiting
      continue;
    }
    const std::optional<Bytes> at = chain.head_at(claim.rev);
    if (!at || *at != claim.head) {
      v.verdict = AuditVerdict::kEquivocation;
      v.detail = "peer " + claim.client + " witnessed rev " +
                 std::to_string(claim.rev) +
                 " with a head this history does not contain";
      return v;
    }
    it = peer_claims_.erase(it);
  }

  // Fast-forward through the verified links.
  for (const enc::AuditLink& link : chain.links) {
    if (link.rev > committed_rev_) remember(link.rev, link.head);
  }
  if (chain.tip_rev() > committed_rev_) {
    committed_rev_ = chain.tip_rev();
    committed_head_ = chain.links.empty() ? chain.base_head
                                          : chain.links.back().head;
    log_commit(committed_rev_, committed_head_);
  }
  return v;
}

DocumentAuditor::Verification DocumentAuditor::verify_ack(
    const std::optional<std::string>& tail) const {
  if (!staged_) {
    throw Error(ErrorCode::kState, "DocumentAuditor: ack check with no stage");
  }
  Verification v;
  if (!tail) {
    v.verdict = AuditVerdict::kFork;
    v.detail = "save ack carries no audit chain tail";
  } else if (*tail != enc::encode_chain({committed_rev_, committed_head_,
                                         {*staged_}})) {
    v.verdict = AuditVerdict::kFork;
    v.detail = "save ack's chain tail is not our committed head at rev " +
               std::to_string(committed_rev_) + " plus the staged link";
  }
  return v;
}

DocumentAuditor::Verification DocumentAuditor::check_witness(
    const enc::AuditWitness& witness) {
  Verification v;
  if (!enc::verify_witness(key_, witness)) {
    v.detail = "witness MAC invalid (ignored)";
    return v;
  }
  if (witness.client == client_id_) return v;  // own witness: see suppressed
  if (witness.rev > committed_rev_) {
    // Peer is ahead of us; remember the freshest claim per peer and check
    // it against the next verified chain.
    auto [it, inserted] = peer_claims_.emplace(witness.client, witness);
    if (!inserted && witness.rev > it->second.rev) it->second = witness;
    return v;
  }
  const std::optional<Bytes> ours = head_at(witness.rev);
  if (!ours) {
    v.detail = "witness rev outside our evidence window (ignored)";
    return v;
  }
  if (*ours != witness.head) {
    v.verdict = AuditVerdict::kEquivocation;
    v.detail = "peer " + witness.client + " holds a different head at rev " +
               std::to_string(witness.rev) +
               " — the server is serving divergent histories";
  }
  return v;
}

enc::AuditWitness DocumentAuditor::own_witness() const {
  if (!initialized()) {
    throw Error(ErrorCode::kState, "DocumentAuditor: witness before reset");
  }
  return enc::make_witness(key_, client_id_, committed_rev_, committed_head_);
}

bool DocumentAuditor::witness_suppressed(
    const std::optional<enc::AuditWitness>& own_served) const {
  if (!published_rev_) return false;  // never published: nothing to expect
  if (!own_served) return true;
  if (!enc::verify_witness(key_, *own_served)) return true;  // tampered
  return own_served->rev < *published_rev_;
}

std::optional<Bytes> DocumentAuditor::head_at(std::uint64_t rev) const {
  const auto it = window_.find(rev);
  if (it == window_.end()) return std::nullopt;
  return it->second;
}

}  // namespace privedit::extension
