// Storage integrity bench: what the scrub/fsck machinery costs at the
// provider and at the operator's console.
//
// Three measurements over the same corpus of encrypted documents:
//
//   check        — offline check_store() over one replica directory:
//                  structural walk (rev line, container framing) alone,
//                  then again with the deep decrypt validator, giving the
//                  records/sec an operator pays for --check-only.
//   scrub        — online GDocsServer::scrub_step() full cycles over the
//                  same store: the disk-vs-memory compare + container walk
//                  the provider piggybacks on live traffic, in docs/sec.
//   fsck repair  — seed three replicas, corrupt a fraction of one (byte
//                  rot, clobbered rev lines, lost directory entries), run
//                  extension::run_fsck() end to end, and charge the wall
//                  clock per repaired document. A run that fails to heal
//                  every damaged doc fails the bench.
//
// Output: one JSON line per measurement (machine-consumable — the numbers
// in BENCH_pr7.json come from here) followed by a human summary. --quick
// shrinks the corpus for CI smoke runs.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "privedit/cloud/file_store.hpp"
#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/cloud/store_check.hpp"
#include "privedit/crypto/sha256.hpp"
#include "privedit/extension/fsck.hpp"
#include "privedit/extension/journal.hpp"
#include "privedit/extension/session.hpp"
#include "privedit/util/hex.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/random.hpp"

#include "bench_common.hpp"

namespace privedit {
namespace {

namespace fs = std::filesystem;

constexpr const char* kPassword = "bench-pw";

std::string make_body(std::size_t chars, std::uint64_t seed) {
  std::string body;
  body.reserve(chars);
  Xoshiro256 rng(seed);
  while (body.size() < chars) {
    body += "the quick brown fox jumps over the lazy dog ";
    if (rng.below(7) == 0) body += '\n';
  }
  body.resize(chars);
  return body;
}

std::string doc_name(std::size_t i) { return "doc-" + std::to_string(i); }

/// Populates `dir` with `docs` encrypted records at rev 3 and returns the
/// pristine record bytes keyed by doc id (for corruption + verification).
std::map<std::string, cloud::Store::Record> seed_store(
    const std::string& dir, std::size_t docs, std::size_t doc_chars) {
  std::map<std::string, cloud::Store::Record> pristine;
  cloud::FileStore store(dir);
  for (std::size_t i = 0; i < docs; ++i) {
    enc::SchemeConfig scheme;
    scheme.mode = enc::Mode::kRpc;
    scheme.kdf_iterations = 10;
    auto session = extension::DocumentSession::create_new(
        kPassword, scheme, extension::seeded_rng_factory(1000 + i));
    const std::string container =
        session.encrypt_full(make_body(doc_chars, 2000 + i));
    const cloud::Store::Record record{container, 3};
    store.put(doc_name(i), record);
    pristine[doc_name(i)] = record;
  }
  return pristine;
}

int run(bool quick) {
  using bench::time_seconds;

  const std::size_t docs = quick ? 12 : 48;
  const std::size_t doc_chars = quick ? 400 : 2'000;
  const std::size_t corrupt_docs = docs / 4;

  const std::string base =
      (fs::temp_directory_path() / "privedit_store_scrub").string();
  fs::remove_all(base);
  std::vector<std::string> replicas = {base + "/r0", base + "/r1",
                                       base + "/r2"};
  std::map<std::string, cloud::Store::Record> pristine;
  for (const std::string& dir : replicas) {
    pristine = seed_store(dir, docs, doc_chars);
  }
  // The operator's journals anchor every doc at its acked revision — this
  // is what lets fsck see a lost directory entry as kMissing.
  const std::string journal_dir = base + "/journal";
  fs::create_directories(journal_dir);
  for (const auto& [id, record] : pristine) {
    extension::EditJournal journal(journal_dir + "/" +
                                   hex_encode(as_bytes(id)) + ".wal");
    const std::string checksum = crypto::content_hash16(record.content);
    journal.append_pending({record.rev, /*full_save=*/true, checksum,
                            record.content});
    journal.ack_front(record.rev, checksum);
  }
  const std::size_t record_bytes = pristine.begin()->second.content.size();
  std::printf("# store_scrub: docs=%zu doc_chars=%zu record_bytes=%zu\n",
              docs, doc_chars, record_bytes);

  // --- check_store: structural walk, then deep decrypt validation ---
  {
    cloud::FileStore store(replicas[0]);
    const cloud::CheckConfig structural;
    cloud::CheckReport report;
    const double structural_s = time_seconds([&] {
      for (int round = 0; round < 5; ++round) {
        report = cloud::check_store(store, structural);
      }
    }) / 5.0;
    if (!report.store_clean()) {
      std::fprintf(stderr, "FAIL: pristine store checked dirty\n");
      return 1;
    }

    cloud::CheckConfig deep;
    deep.deep_validate = [](const std::string& content) {
      try {
        extension::DocumentSession::open(kPassword, content,
                                         extension::seeded_rng_factory(0));
        return true;
      } catch (const Error&) {
        return false;
      }
    };
    const double deep_s =
        time_seconds([&] { report = cloud::check_store(store, deep); });
    if (!report.store_clean()) {
      std::fprintf(stderr, "FAIL: pristine store failed deep validation\n");
      return 1;
    }
    std::printf(
        "{\"bench\":\"check_store\",\"docs\":%zu,"
        "\"structural_docs_per_s\":%.0f,\"structural_mb_per_s\":%.1f,"
        "\"deep_docs_per_s\":%.1f}\n",
        docs, static_cast<double>(docs) / structural_s,
        static_cast<double>(docs * record_bytes) / structural_s / 1e6,
        static_cast<double>(docs) / deep_s);
  }

  // --- online scrub: full cycles against a live server ---
  {
    cloud::GDocsServer server;
    server.enable_persistence(
        std::make_unique<cloud::FileStore>(replicas[0]));
    cloud::GDocsServer::ScrubConfig scrub;
    scrub.docs_per_cycle = 8;
    scrub.interval_requests = 0;  // driven directly, not via handle()
    server.enable_scrub(scrub);
    const std::size_t cycles = quick ? 10 : 40;
    const double scrub_s = time_seconds([&] {
      while (server.scrub_counters().cycles < cycles) server.scrub_step();
    });
    const auto& c = server.scrub_counters();
    if (c.quarantined != 0 || c.store_mismatches != 0) {
      std::fprintf(stderr, "FAIL: scrub flagged a pristine store\n");
      return 1;
    }
    std::printf(
        "{\"bench\":\"scrub\",\"docs\":%zu,\"docs_scrubbed\":%zu,"
        "\"cycles\":%zu,\"docs_per_s\":%.0f,\"us_per_doc\":%.1f}\n",
        docs, c.docs_scrubbed, c.cycles,
        static_cast<double>(c.docs_scrubbed) / scrub_s,
        scrub_s / static_cast<double>(c.docs_scrubbed) * 1e6);
  }

  // --- fsck: corrupt a quarter of replica 0, repair from the others ---
  {
    Xoshiro256 rng(41);
    cloud::FileStore victim(replicas[0]);
    for (std::size_t i = 0; i < corrupt_docs; ++i) {
      const std::string id = doc_name(i);
      switch (i % 3) {
        case 0: {  // flip one ciphertext byte
          std::fstream f(victim.path_for(id),
                         std::ios::in | std::ios::out | std::ios::binary);
          const auto off = 2 + rng.below(record_bytes - 2);
          f.seekg(static_cast<std::streamoff>(off));
          char b = static_cast<char>(f.get());
          f.seekp(static_cast<std::streamoff>(off));
          f.put(b == 'A' ? 'B' : 'A');
          break;
        }
        case 1:  // clobber the record wholesale
          std::ofstream(victim.path_for(id),
                        std::ios::trunc | std::ios::binary)
              << "not a record";
          break;
        default:  // lost directory entry
          fs::remove(victim.path_for(id));
          break;
      }
    }

    extension::FsckOptions options;
    options.password = kPassword;
    options.journal_dir = journal_dir;
    extension::FsckResult result;
    const double fsck_s = time_seconds(
        [&] { result = extension::run_fsck(replicas, options); });
    if (result.dirty_docs != corrupt_docs ||
        result.repaired_docs != corrupt_docs ||
        !result.unrecoverable.empty() || !result.healthy_after()) {
      std::fprintf(stderr,
                   "FAIL: fsck dirty=%zu repaired=%zu unrecoverable=%zu "
                   "(expected %zu repaired)\n",
                   result.dirty_docs, result.repaired_docs,
                   result.unrecoverable.size(), corrupt_docs);
      return 1;
    }
    for (std::size_t i = 0; i < corrupt_docs; ++i) {
      const auto healed = cloud::FileStore(replicas[0]).get(doc_name(i));
      if (!healed || healed->content != pristine[doc_name(i)].content) {
        std::fprintf(stderr, "FAIL: %s not byte-identical after repair\n",
                     doc_name(i).c_str());
        return 1;
      }
    }
    std::printf(
        "{\"bench\":\"fsck\",\"replicas\":%zu,\"docs\":%zu,"
        "\"corrupted\":%zu,\"repaired\":%zu,\"syncs_pushed\":%zu,"
        "\"total_ms\":%.1f,\"ms_per_repair\":%.2f}\n",
        replicas.size(), docs, corrupt_docs, result.repaired_docs,
        result.syncs_pushed, fsck_s * 1e3,
        fsck_s * 1e3 / static_cast<double>(corrupt_docs));
    std::printf("# summary: fsck healed %zu/%zu docs across %zu replicas "
                "in %.1f ms\n",
                result.repaired_docs, corrupt_docs, replicas.size(),
                fsck_s * 1e3);
  }

  fs::remove_all(base);
  return 0;
}

}  // namespace
}  // namespace privedit

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  return privedit::run(quick);
}
