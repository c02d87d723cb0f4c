#include "privedit/extension/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "privedit/util/bytes.hpp"
#include "privedit/util/crashpoint.hpp"
#include "privedit/util/crc32.hpp"
#include "privedit/util/durable_file.hpp"
#include "privedit/util/error.hpp"

namespace privedit::extension {
namespace {

constexpr std::uint32_t kMagic = 0x5045574Au;  // "PEWJ"
constexpr std::size_t kFrameHeader = 12;       // magic + len + crc

constexpr std::uint8_t kPending = 0x01;
constexpr std::uint8_t kAck = 0x02;
constexpr std::uint8_t kBase = 0x03;
constexpr std::uint8_t kDrop = 0x04;
// Read-only: older journals opened with a BASE that also carried the
// acknowledged container.
constexpr std::uint8_t kBaseWithContainer = 0x05;

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

std::string encode_pending(const JournalEntry& e) {
  std::string payload;
  payload.push_back(static_cast<char>(kPending));
  put_u64(payload, e.base_rev);
  payload.push_back(e.full_save ? '\x01' : '\x00');
  payload.push_back(static_cast<char>(e.checksum.size() >> 8));
  payload.push_back(static_cast<char>(e.checksum.size()));
  payload += e.checksum;
  payload += e.update;
  return payload;
}

std::string encode_acked(std::uint8_t type, std::uint64_t rev,
                         const std::string& checksum) {
  std::string payload;
  payload.push_back(static_cast<char>(type));
  put_u64(payload, rev);
  payload += checksum;
  return payload;
}

[[noreturn]] void raise(const std::string& what) {
  throw Error(ErrorCode::kState, "EditJournal: " + what + ": " +
                                     std::strerror(errno));
}

}  // namespace

EditJournal::EditJournal(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) raise("cannot open " + path_);
  load();
}

EditJournal::~EditJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void EditJournal::load() {
  std::string raw;
  {
    char buf[64 * 1024];
    ssize_t n;
    while ((n = ::read(fd_, buf, sizeof buf)) > 0) {
      raw.append(buf, static_cast<std::size_t>(n));
    }
    if (n < 0) raise("cannot read " + path_);
  }

  std::size_t good = 0;  // offset past the last intact record
  std::size_t at = 0;
  while (at + kFrameHeader <= raw.size()) {
    if (get_u32(raw, at) != kMagic) break;
    const std::size_t len = get_u32(raw, at + 4);
    if (at + kFrameHeader + len > raw.size()) break;  // short tail
    const std::string_view payload(raw.data() + at + kFrameHeader, len);
    if (get_u32(raw, at + 8) != crc32(as_bytes(payload)) || payload.empty()) {
      break;  // torn or rotted record — everything after it is suspect
    }
    const std::uint8_t type = static_cast<std::uint8_t>(payload[0]);
    bool parsed = true;
    switch (type) {
      case kPending: {
        if (payload.size() < 12) { parsed = false; break; }
        JournalEntry e;
        e.base_rev = get_u64(payload, 1);
        e.full_save = payload[9] != '\x00';
        const std::size_t ck_len =
            (static_cast<std::size_t>(static_cast<unsigned char>(payload[10])) << 8) |
            static_cast<unsigned char>(payload[11]);
        if (payload.size() < 12 + ck_len) { parsed = false; break; }
        e.checksum = std::string(payload.substr(12, ck_len));
        e.update = std::string(payload.substr(12 + ck_len));
        pending_.push_back(std::move(e));
        break;
      }
      case kBaseWithContainer: {
        if (payload.size() < 11) { parsed = false; break; }
        const std::size_t ck_len =
            (static_cast<std::size_t>(static_cast<unsigned char>(payload[9])) << 8) |
            static_cast<unsigned char>(payload[10]);
        if (payload.size() < 11 + ck_len) { parsed = false; break; }
        last_acked_ = Acked{get_u64(payload, 1),
                            std::string(payload.substr(11, ck_len))};
        break;
      }
      case kAck:
      case kBase: {
        if (payload.size() < 9) { parsed = false; break; }
        Acked a;
        a.rev = get_u64(payload, 1);
        a.checksum = std::string(payload.substr(9));
        if (type == kAck && !pending_.empty()) pending_.pop_front();
        last_acked_ = std::move(a);
        break;
      }
      case kDrop:
        if (!pending_.empty()) pending_.pop_front();
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
    // Torn tail: truncate the file back to the last intact record so the
    // next append starts a clean frame.
    recovered_torn_tail_ = true;
    if (::ftruncate(fd_, static_cast<off_t>(good)) != 0) {
      raise("cannot truncate torn tail of " + path_);
    }
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) raise("cannot seek " + path_);
}

void EditJournal::append_frame(const std::string& payload) {
  const std::string bytes = frame(payload);
  CrashPoints::reach("journal.append.before_write");
  // Two half-writes so an armed crash between them leaves a torn frame —
  // exactly what a power loss mid-append produces.
  const std::size_t half = bytes.size() / 2;
  std::size_t done = 0;
  auto write_span = [&](std::size_t upto) {
    while (done < upto) {
      const ssize_t n = ::write(fd_, bytes.data() + done, upto - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        raise("cannot append to " + path_);
      }
      done += static_cast<std::size_t>(n);
    }
  };
  write_span(half);
  CrashPoints::reach("journal.append.torn");
  write_span(bytes.size());
  CrashPoints::reach("journal.append.before_fsync");
  if (::fsync(fd_) != 0) raise("cannot fsync " + path_);
}

void EditJournal::append_pending(const JournalEntry& entry) {
  append_frame(encode_pending(entry));
  pending_.push_back(entry);
}

void EditJournal::ack_front(std::uint64_t rev, const std::string& checksum) {
  if (pending_.empty()) {
    throw Error(ErrorCode::kState, "EditJournal: ack with nothing pending");
  }
  append_frame(encode_acked(kAck, rev, checksum));
  // Callers may pass a reference into the front entry itself; take the
  // copy before pop_front() destroys it.
  Acked acked{rev, checksum};
  pending_.pop_front();
  last_acked_ = std::move(acked);
}

void EditJournal::drop_front() {
  if (pending_.empty()) {
    throw Error(ErrorCode::kState, "EditJournal: drop with nothing pending");
  }
  append_frame(std::string(1, static_cast<char>(kDrop)));
  pending_.pop_front();
}

void EditJournal::reset(std::uint64_t rev, const std::string& checksum) {
  pending_.clear();
  last_acked_ = Acked{rev, checksum};
  compact();
}

void EditJournal::compact() {
  std::string contents;
  if (last_acked_) {
    contents += frame(
        encode_acked(kBase, last_acked_->rev, last_acked_->checksum));
  }
  for (const JournalEntry& e : pending_) contents += frame(encode_pending(e));
  // The append fd must not straddle the rename: close, replace, reopen.
  ::close(fd_);
  fd_ = -1;
  durable_replace_file(path_, contents, "journal.compact");
  // A transient open failure here would otherwise strand the journal with
  // fd_ == -1 while the in-memory state says everything is fine: retry,
  // then raise a typed storage error the offline queue can surface.
  for (int attempt = 0; attempt < 3 && fd_ < 0; ++attempt) {
    fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND, 0644);
    if (fd_ < 0 && errno != EINTR && errno != EMFILE && errno != ENFILE) {
      break;
    }
  }
  if (fd_ < 0) {
    throw StorageError("EditJournal: cannot reopen " + path_ +
                           " after compact",
                       errno);
  }
}

std::optional<std::uint64_t> EditJournal::bytes_on_disk() const {
  struct stat st{};
  if (fd_ < 0 || ::fstat(fd_, &st) != 0) return std::nullopt;
  return static_cast<std::uint64_t>(st.st_size);
}

}  // namespace privedit::extension
