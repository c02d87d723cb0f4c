#include "privedit/sim/fuzz.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "privedit/cloud/file_store.hpp"
#include "privedit/cloud/store_check.hpp"
#include "privedit/delta/block_diff.hpp"
#include "privedit/delta/delta.hpp"
#include "privedit/enc/container.hpp"
#include "privedit/extension/journal.hpp"
#include "privedit/extension/session.hpp"
#include "privedit/net/http.hpp"
#include "privedit/util/crc32.hpp"
#include "privedit/util/error.hpp"

namespace privedit::sim {
namespace {

/// Documents bigger than this make apply()/invert() checks pointlessly
/// slow without covering new code.
constexpr std::size_t kMaxApplySpan = 4096;

void check(bool ok, const char* what) {
  if (!ok) throw FuzzCheckFailure(what);
}

}  // namespace

void fuzz_delta(std::string_view data) {
  delta::Delta parsed;
  try {
    parsed = delta::Delta::parse(data);
  } catch (const ParseError&) {
    return;  // correct rejection
  } catch (const Error&) {
    return;  // count caps etc. also reject loudly — fine
  }
  // Serialise/parse must be a fixed point of the accepted value.
  const std::string wire = parsed.to_wire();
  const delta::Delta reparsed = delta::Delta::parse(wire);
  check(reparsed == parsed, "delta: to_wire/parse is not a fixed point");

  const std::size_t span = parsed.input_span();
  if (span > kMaxApplySpan) return;
  // A delta is valid for any document of length >= input_span, so apply
  // on exactly that document MUST succeed for an accepted delta.
  std::string doc(span, 'a');
  for (std::size_t i = 0; i < doc.size(); ++i) {
    doc[i] = static_cast<char>('a' + i % 17);
  }
  std::string applied;
  try {
    applied = parsed.apply(doc);
  } catch (const Error&) {
    throw FuzzCheckFailure("delta: accepted by parse but apply rejected a "
                           "document of input_span length");
  }
  check(static_cast<std::int64_t>(applied.size()) ==
            static_cast<std::int64_t>(doc.size()) + parsed.length_change(),
        "delta: length_change disagrees with apply");
  const delta::Delta inverse = parsed.invert(doc);
  check(inverse.apply(applied) == doc, "delta: invert does not round trip");
  const delta::Delta canon = parsed.canonicalized();
  check(canon.apply(doc) == applied,
        "delta: canonical form changes the result");
  check(canon.is_canonical(), "delta: canonicalized() not canonical");
}

void fuzz_container(std::string_view data) {
  const bool plausible = enc::looks_like_container(data);
  enc::ContainerHeader header;
  std::size_t units = 0;
  try {
    enc::ContainerReader reader(data);
    header = reader.header();
    units = reader.unit_count();
    for (std::size_t u = 0; u < units && u < 64; ++u) {
      (void)reader.unit(u);
    }
  } catch (const Error&) {
    return;  // malformed container, rejected loudly — correct
  }
  // A fully parsed container must have passed the plausibility probe.
  check(plausible, "container: reader accepted what looks_like rejected");
  check(header.unit_width() > 0, "container: zero unit width");
  check(header.prefix_chars() + units * header.unit_width() == data.size(),
        "container: unit arithmetic does not cover the document");
  // Parsing succeeded: a real open must either succeed or fail loudly.
  // Gate on the header's KDF cost so a fuzzed header cannot make the
  // harness grind through millions of PBKDF2 iterations.
  if (header.kdf_iterations > 64) return;
  try {
    extension::DocumentSession session = extension::DocumentSession::open(
        "fuzz password", data, extension::seeded_rng_factory(1));
    (void)session.plaintext();
  } catch (const Error&) {
    // Wrong password / tampering / truncation — all correct rejections.
  }
}

void fuzz_journal(std::string_view data, const std::string& scratch_dir) {
  namespace fs = std::filesystem;
  fs::create_directories(scratch_dir);
  // Distinct scratch file per input so parallel test shards never collide.
  const std::string path =
      (fs::path(scratch_dir) /
       ("fuzz-" + std::to_string(crc32(as_bytes(data))) + "-" +
        std::to_string(data.size()) + ".wal"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  std::size_t pending = 0;
  std::uint64_t acked_rev = 0;
  {
    extension::EditJournal journal(path);  // load must never crash
    pending = journal.pending().size();
    if (journal.last_acked()) acked_rev = journal.last_acked()->rev;
    // The recovered state must survive an append + reload round trip.
    journal.append_pending({acked_rev + 1, false, "ck", "=1\t+x"});
  }
  {
    extension::EditJournal journal(path);
    check(journal.pending().size() == pending + 1,
          "journal: append after recovery lost or duplicated entries");
    check(!journal.pending().empty() &&
              journal.pending().back().update == "=1\t+x",
          "journal: appended entry corrupted across reload");
    journal.compact();
  }
  {
    extension::EditJournal journal(path);
    check(journal.pending().size() == pending + 1,
          "journal: compact changed the pending set");
  }
  fs::remove(path);
}

void fuzz_store_record(std::string_view data,
                       const std::string& scratch_dir) {
  namespace fs = std::filesystem;
  // Distinct store directory per input so parallel shards never collide.
  const std::string dir =
      (fs::path(scratch_dir) /
       ("store-" + std::to_string(crc32(as_bytes(data))) + "-" +
        std::to_string(data.size())))
          .string();
  fs::create_directories(dir);
  const std::string doc_id = "fuzzdoc";
  {
    // Plant the raw bytes as the document's record file, plus a stale
    // temp beside it — the crash-leftover a store open must sweep.
    cloud::FileStore layout(dir);
    std::ofstream record(layout.path_for(doc_id),
                         std::ios::binary | std::ios::trunc);
    record.write(data.data(), static_cast<std::streamsize>(data.size()));
    std::ofstream stale(layout.path_for(doc_id) + ".tmp",
                        std::ios::binary | std::ios::trunc);
    stale << "stale";
  }
  cloud::FileStore store(dir);
  check(store.tmp_swept() >= 1, "store: opening sweep missed a stale tmp");

  std::optional<cloud::Store::Record> record;
  try {
    record = store.get(doc_id);
  } catch (const ParseError&) {
    // Corrupt record rejected loudly — correct. It must still be listed
    // (scrub/fsck walk it) and load_all must skip-and-report, not die.
  }
  const auto ids = store.list_doc_ids();
  check(std::find(ids.begin(), ids.end(), doc_id) != ids.end(),
        "store: planted record missing from list_doc_ids");
  std::vector<std::string> corrupt;
  const auto all = store.load_all(&corrupt);
  check(all.count(doc_id) + corrupt.size() == 1,
        "store: load_all neither loaded nor reported the record");

  // Classification must never crash, whatever the bytes.
  const cloud::CheckReport report = cloud::check_store(store);
  if (record) {
    // A readable record must survive a put/get round trip bit-for-bit.
    store.put(doc_id, *record);
    const auto again = store.get(doc_id);
    check(again && *again == *record,
          "store: put/get round trip changed a readable record");
  } else {
    check(report.count(cloud::FindingKind::kUnreadableRecord) == 1,
          "store: unreadable record not reported by check_store");
  }
  fs::remove_all(dir);
}

void fuzz_diff(std::string_view data) {
  // 1. The bytes as a digest list from a probe reply (what a malicious
  //    replica can answer): parse must reject loudly or round trip.
  std::vector<std::uint64_t> probed;
  try {
    probed = delta::block_digests_from_wire(data);
    check(delta::block_digests_from_wire(
              delta::block_digests_to_wire(probed)) == probed,
          "block digests: wire round trip changed the list");
  } catch (const ParseError&) {
    // correct rejection (not a whole number of 16-hex digests)
  }

  // 2. The bytes as a (source, target) pair: digests -> Delta -> wire ->
  //    parse -> apply must reconstruct the target exactly, whatever the
  //    content and however the block size divides it.
  if (data.size() > 2 * kMaxApplySpan) return;
  const std::size_t block_size =
      1 + (data.empty() ? 0 : static_cast<unsigned char>(data[0])) % 64;
  const std::size_t cut = data.size() / 2;
  const std::string_view source = data.substr(0, cut);
  const std::string_view target = data.substr(cut);
  const delta::Delta repair = delta::block_diff_from_digests(
      delta::block_digests(source, block_size), source.size(), target,
      block_size);
  const delta::Delta parsed = delta::Delta::parse(repair.to_wire());
  check(parsed == repair, "repair delta: wire form is not a fixed point");
  check(parsed.apply(source) == target, "repair delta: does not round trip");

  // 3. Digests describing some other copy (a stale probe, a lying
  //    replica): the delta must still consume exactly the declared source
  //    and produce a target-sized result — what the receiver's dbase and
  //    dtarget anchors then judge.
  for (const auto& digests :
       {probed, delta::block_digests(target, block_size)}) {
    const delta::Delta blind = delta::block_diff_from_digests(
        digests, source.size(), target, block_size);
    check(blind.apply(source).size() == target.size(),
          "repair delta: result size differs from the target's");
  }
}

void fuzz_http(std::string_view data) {
  try {
    const net::HttpRequest request = net::HttpRequest::parse(data);
    const net::HttpRequest again =
        net::HttpRequest::parse(request.serialize());
    check(again.method == request.method && again.target == request.target &&
              again.body == request.body,
          "http: request serialise/parse is not a fixed point");
  } catch (const Error&) {
    // rejected — fine
  }
  try {
    const net::HttpResponse response = net::HttpResponse::parse(data);
    const net::HttpResponse again =
        net::HttpResponse::parse(response.serialize());
    check(again.status == response.status && again.body == response.body,
          "http: response serialise/parse is not a fixed point");
  } catch (const Error&) {
    // rejected — fine
  }
}

}  // namespace privedit::sim
