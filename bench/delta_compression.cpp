// Differential compression bench (DESIGN.md §15): what the delta wire
// forms buy on the three container-moving paths.
//
//   save_wire  — end to end through the mediator: a 1-char edit saved as
//                docContents, with delta_full_saves on (the save rides the
//                anchored cdelta) vs off, across
//                document sizes up to 256 KB. Reports bytes-on-wire per
//                save, the full/delta ratio, and ms per save. FAILs unless
//                the >=100 KB documents drop bytes-on-wire by >=10x and
//                the server converges byte-identically to the mediator's
//                ciphertext mirror.
//   repair     — anti-entropy push through push_sync_over: a lagging
//                replica (shares all but the last edit's blocks) heals
//                over the digest exchange + anchored delta; a fully divergent
//                replica exercises the full-container fallback through the
//                same helper. Reports bytes and ms per repair, both paths,
//                and FAILs unless both end byte-identical to the donor.
//   blowup     — Fig 7 context: container/plaintext blow-up per document
//                size next to the delta wire per 1-char edit, i.e. what
//                the edit *actually* costs on the wire once differential
//                saves absorb the container blow-up.
//
// Output: one JSON line per measurement; the array lands in BENCH_pr9.json
// (override with --out). --quick shrinks sizes/repeats for CI smoke runs.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/delta/delta.hpp"
#include "privedit/extension/mediator.hpp"
#include "privedit/extension/replication.hpp"
#include "privedit/extension/session.hpp"
#include "privedit/net/transport.hpp"
#include "privedit/util/random.hpp"
#include "privedit/util/urlencode.hpp"

#include "bench_common.hpp"

namespace privedit {
namespace {

constexpr const char* kPassword = "bench-pw";
constexpr const char* kTarget = "/Doc?docID=bdoc";

/// In-process channel straight into a server's handler.
class DirectChannel final : public net::Channel {
 public:
  explicit DirectChannel(cloud::GDocsServer* server) : server_(server) {}
  net::HttpResponse round_trip(const net::HttpRequest& request) override {
    return server_->handle(request);
  }

 private:
  cloud::GDocsServer* server_;
};

std::string make_body(std::size_t chars, std::uint64_t seed) {
  std::string body;
  body.reserve(chars + 64);
  Xoshiro256 rng(seed);
  while (body.size() < chars) {
    body += "the quick brown fox jumps over the lazy dog ";
    if (rng.below(7) == 0) body += '\n';
  }
  body.resize(chars);
  return body;
}

extension::MediatorConfig mediator_config(bool delta_saves,
                                          std::uint64_t seed) {
  extension::MediatorConfig mc;
  mc.password = kPassword;
  mc.scheme.mode = enc::Mode::kRpc;
  mc.scheme.block_chars = 8;
  mc.scheme.kdf_iterations = 10;
  mc.rng_factory = extension::seeded_rng_factory(seed);
  mc.delta_full_saves = delta_saves;
  return mc;
}

std::uint64_t parse_rev(const std::string& body) {
  const auto field = FormData::parse(body).get("rev");
  return field ? std::stoull(*field) : 0;
}

struct SaveRow {
  std::size_t doc_chars = 0;
  std::size_t container_bytes = 0;
  double full_bytes_per_save = 0;
  double delta_bytes_per_save = 0;
  double full_ms_per_save = 0;
  double delta_ms_per_save = 0;
  double ratio = 0;
  bool converged = false;
};

/// Drives `saves` 1-char-edit docContents saves through a fresh mediator
/// (delta_full_saves on or off) and returns bytes/time per save.
SaveRow run_save_cell(std::size_t doc_chars, std::size_t saves) {
  SaveRow row;
  row.doc_chars = doc_chars;
  for (const bool delta_saves : {false, true}) {
    cloud::GDocsServer server;
    DirectChannel channel(&server);
    extension::GDocsMediator mediator(
        &channel, mediator_config(delta_saves, 7'000 + doc_chars));

    std::string text = make_body(doc_chars, 9'000 + doc_chars);
    FormData create;
    create.add("cmd", "create");
    std::uint64_t rev = parse_rev(
        mediator
            .round_trip(net::HttpRequest::post_form(kTarget, create.encode()))
            .body);
    const auto save = [&](const std::string& contents) {
      FormData f;
      f.add("session", "1");
      f.add("rev", std::to_string(rev));
      f.add("docContents", contents);
      const net::HttpResponse resp = mediator.round_trip(
          net::HttpRequest::post_form(kTarget, f.encode()));
      if (!resp.ok()) {
        std::fprintf(stderr, "FAIL: save rejected: HTTP %d\n", resp.status);
        std::exit(1);
      }
      rev = parse_rev(resp.body);
    };
    save(text);  // the base full save both configurations pay

    const auto& before = mediator.counters();
    const std::size_t full0 = before.full_save_bytes;
    const std::size_t delta0 = before.delta_full_save_bytes;
    Xoshiro256 rng(31 + doc_chars);
    const double seconds = bench::time_seconds([&] {
      for (std::size_t i = 0; i < saves; ++i) {
        const std::size_t at = rng.below(text.size());
        text[at] = text[at] == 'q' ? 'z' : 'q';
        save(text);
      }
    });

    const auto& after = mediator.counters();
    if (delta_saves) {
      row.delta_bytes_per_save =
          static_cast<double>(after.delta_full_save_bytes - delta0) /
          static_cast<double>(saves);
      row.delta_ms_per_save = seconds * 1e3 / static_cast<double>(saves);
      if (after.delta_full_saves != saves ||
          after.delta_full_save_fallbacks != 0) {
        std::fprintf(stderr,
                     "FAIL: %zu of %zu saves travelled as deltas "
                     "(%zu fallbacks)\n",
                     after.delta_full_saves, saves,
                     after.delta_full_save_fallbacks);
        std::exit(1);
      }
      // Convergence: the server must hold the mediator's mirror verbatim.
      row.converged = server.raw_content("bdoc") ==
                      mediator.managed_ciphertext("bdoc");
      row.container_bytes = mediator.managed_ciphertext("bdoc")->size();
    } else {
      row.full_bytes_per_save =
          static_cast<double>(after.full_save_bytes - full0) /
          static_cast<double>(saves);
      row.full_ms_per_save = seconds * 1e3 / static_cast<double>(saves);
    }
  }
  row.ratio = row.delta_bytes_per_save > 0
                  ? row.full_bytes_per_save / row.delta_bytes_per_save
                  : 0;
  return row;
}

struct RepairRow {
  std::size_t doc_chars = 0;
  std::size_t container_bytes = 0;
  double delta_bytes = 0;
  double full_bytes = 0;
  double delta_ms = 0;
  double full_ms = 0;
  bool ok = false;
};

/// One lagging replica (holds the pre-edit container: every unedited block
/// shared) and one divergent replica (an unrelated container: nothing
/// shared, so the same helper takes the full-content path via its wire-size
/// gate). Both must end byte-identical to the donor.
RepairRow run_repair_cell(std::size_t doc_chars, std::size_t repeats) {
  RepairRow row;
  row.doc_chars = doc_chars;

  const std::string text = make_body(doc_chars, 100 + doc_chars);
  std::string edited = text;
  edited[doc_chars / 2] = '#';
  extension::DocumentSession donor = extension::DocumentSession::create_new(
      kPassword, mediator_config(false, 1).scheme,
      extension::seeded_rng_factory(55));
  const std::string stale = donor.encrypt_full(text);
  donor.transform_delta(delta::myers_diff(text, edited));
  const std::string fresh = donor.scheme().ciphertext_doc();
  row.container_bytes = fresh.size();

  extension::DocumentSession other = extension::DocumentSession::create_new(
      kPassword, mediator_config(false, 1).scheme,
      extension::seeded_rng_factory(56));
  const std::string unrelated =
      other.encrypt_full(make_body(doc_chars, 200 + doc_chars));

  cloud::GDocsServer replica;
  DirectChannel channel(&replica);
  const auto reset_to = [&](const std::string& content) {
    FormData f;
    f.add("cmd", "sync");
    f.add("rev", "3");
    f.add("content", content);
    replica.handle(net::HttpRequest::post_form(kTarget, f.encode()));
  };

  extension::SyncPushStats stats;
  row.ok = true;
  double delta_s = 0;
  double full_s = 0;
  for (std::size_t i = 0; i < repeats; ++i) {
    reset_to(stale);
    delta_s += bench::time_seconds([&] {
      row.ok = extension::push_sync_over(channel, kTarget, fresh, "4",
                                         &stats) &&
               row.ok;
    });
    row.ok = row.ok && replica.raw_content("bdoc") == fresh;
    reset_to(unrelated);
    full_s += bench::time_seconds([&] {
      row.ok = extension::push_sync_over(channel, kTarget, fresh, "4",
                                         &stats) &&
               row.ok;
    });
    row.ok = row.ok && replica.raw_content("bdoc") == fresh;
  }
  if (stats.delta_pushes != repeats || stats.full_pushes != repeats) {
    std::fprintf(stderr,
                 "FAIL: expected %zu delta + %zu full pushes, got %zu + %zu "
                 "(%zu fallbacks)\n",
                 repeats, repeats, stats.delta_pushes, stats.full_pushes,
                 stats.fallbacks);
    std::exit(1);
  }
  row.delta_bytes = static_cast<double>(stats.bytes_delta) /
                    static_cast<double>(repeats);
  row.full_bytes = static_cast<double>(stats.bytes_full) /
                   static_cast<double>(repeats);
  row.delta_ms = delta_s * 1e3 / static_cast<double>(repeats);
  row.full_ms = full_s * 1e3 / static_cast<double>(repeats);
  return row;
}

int run(bool quick, const std::string& out_path) {
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{4'096, 131'072}
            : std::vector<std::size_t>{4'096, 16'384, 65'536, 131'072,
                                       262'144};
  const std::size_t saves = quick ? 4 : 8;
  const std::size_t repeats = quick ? 3 : 10;

  std::string report = "[";
  bool failed = false;
  const auto emit = [&](const std::string& line) {
    std::printf("%s\n", line.c_str());
    report += (report.size() > 1 ? ",\n " : "") + line;
  };
  char buf[512];

  std::printf("# delta_compression: sizes=%zu saves=%zu repeats=%zu\n",
              sizes.size(), saves, repeats);
  for (const std::size_t chars : sizes) {
    const SaveRow s = run_save_cell(chars, saves);
    std::snprintf(
        buf, sizeof buf,
        "{\"bench\":\"save_wire\",\"doc_chars\":%zu,"
        "\"container_bytes\":%zu,\"full_bytes_per_save\":%.0f,"
        "\"delta_bytes_per_save\":%.0f,\"ratio\":%.1f,"
        "\"full_ms_per_save\":%.2f,\"delta_ms_per_save\":%.2f,"
        "\"converged\":%s}",
        s.doc_chars, s.container_bytes, s.full_bytes_per_save,
        s.delta_bytes_per_save, s.ratio, s.full_ms_per_save,
        s.delta_ms_per_save, s.converged ? "true" : "false");
    emit(buf);
    if (!s.converged) {
      std::fprintf(stderr, "FAIL: server != mediator mirror at %zu chars\n",
                   chars);
      failed = true;
    }
    if (chars >= 100'000 && s.ratio < 10.0) {
      std::fprintf(stderr,
                   "FAIL: 1-char edit at %zu chars compresses only %.1fx "
                   "(acceptance floor is 10x)\n",
                   chars, s.ratio);
      failed = true;
    }
    // Fig 7 context: the container's blow-up vs what the edit now costs.
    std::snprintf(
        buf, sizeof buf,
        "{\"bench\":\"blowup\",\"doc_chars\":%zu,"
        "\"container_blowup\":%.2f,\"delta_wire_blowup\":%.4f}",
        s.doc_chars,
        static_cast<double>(s.container_bytes) /
            static_cast<double>(s.doc_chars),
        s.delta_bytes_per_save / static_cast<double>(s.doc_chars));
    emit(buf);
  }

  for (const std::size_t chars : sizes) {
    const RepairRow r = run_repair_cell(chars, repeats);
    std::snprintf(
        buf, sizeof buf,
        "{\"bench\":\"repair\",\"doc_chars\":%zu,"
        "\"container_bytes\":%zu,\"delta_bytes\":%.0f,\"full_bytes\":%.0f,"
        "\"ratio\":%.1f,\"delta_ms\":%.2f,\"full_ms\":%.2f,\"ok\":%s}",
        r.doc_chars, r.container_bytes, r.delta_bytes, r.full_bytes,
        r.delta_bytes > 0 ? r.full_bytes / r.delta_bytes : 0, r.delta_ms,
        r.full_ms, r.ok ? "true" : "false");
    emit(buf);
    if (!r.ok) {
      std::fprintf(stderr,
                   "FAIL: repair at %zu chars not byte-identical\n", chars);
      failed = true;
    }
  }

  report += "]\n";
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(report.data(), 1, report.size(), f);
    std::fclose(f);
    std::printf("# wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
    failed = true;
  }
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace privedit

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_pr9.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }
  return privedit::run(quick, out);
}
