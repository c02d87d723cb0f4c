// Fork-consistency audit overhead bench (DESIGN.md §16): what the hash
// chain costs on the editing hot path.
//
//   save_audit — end to end through the mediator: 1-char-edit docContents
//                saves with audit off vs on, across document sizes.
//                Per save the audit layer adds a container CRC, one HMAC
//                link, the base/head form fields and the server-side
//                sidecar append. Reports ms per save and the relative
//                overhead; FAILs unless the editor-scale (4 KB) document
//                stays under 10% added latency, and unless every save
//                actually committed a chain link (the cheap path must not
//                be cheap because it skipped the work).
//   open_audit — open + catch-up verification: replaying an n-link served
//                chain under K_audit. Reports ms per open against chain
//                length, i.e. the cost of the trust-but-verify read path.
//
// Output: one JSON line per measurement; the array lands in
// BENCH_pr10.json (override with --out). --quick shrinks sizes/repeats
// for CI smoke runs.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/extension/mediator.hpp"
#include "privedit/net/transport.hpp"
#include "privedit/util/random.hpp"
#include "privedit/util/urlencode.hpp"

#include "bench_common.hpp"

namespace privedit {
namespace {

constexpr const char* kPassword = "bench-pw";
constexpr const char* kTarget = "/Doc?docID=adoc";

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

extension::MediatorConfig mediator_config(bool audit, std::uint64_t seed) {
  extension::MediatorConfig mc;
  mc.password = kPassword;
  mc.scheme.mode = enc::Mode::kRpc;
  mc.scheme.block_chars = 8;
  mc.scheme.kdf_iterations = 10;
  mc.rng_factory = extension::seeded_rng_factory(seed);
  mc.audit = audit;
  mc.client_id = "bench";
  return mc;
}

std::uint64_t parse_rev(const std::string& body) {
  const auto field = FormData::parse(body).get("rev");
  return field ? std::stoull(*field) : 0;
}

struct SaveCell {
  std::size_t doc_chars = 0;
  double plain_ms_per_save = 0;
  double audit_ms_per_save = 0;
  double overhead = 0;  // audit/plain - 1
  std::size_t links_committed = 0;
};

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2;
}

/// Drives `saves` 1-char-edit saves through a fresh mediator+server pair,
/// audit off vs on. The two configurations alternate round by round, the
/// one that goes first swapping each round; ms per save is the median of
/// each side's rounds and the overhead the median of the per-round
/// audit/plain ratios. Machine drift and scheduler noise then hit both
/// sides alike instead of masquerading as (or hiding) chain cost.
SaveCell run_save_cell(std::size_t doc_chars, std::size_t saves,
                       std::size_t rounds) {
  SaveCell cell;
  cell.doc_chars = doc_chars;
  const auto timed_round = [&](bool audit, std::size_t round) {
    cloud::GDocsServer server;
    DirectChannel channel(&server);
    extension::GDocsMediator mediator(
        &channel, mediator_config(audit, 7'000 + doc_chars + round));

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
    save(text);  // base full save, outside the timed window

    Xoshiro256 rng(31 + doc_chars + round);
    const double seconds = bench::time_seconds([&] {
      for (std::size_t i = 0; i < saves; ++i) {
        const std::size_t at = rng.below(text.size());
        text[at] = text[at] == 'q' ? 'z' : 'q';
        save(text);
      }
    });
    if (audit) {
      // The gate below checks the weakest round.
      cell.links_committed = std::min(
          cell.links_committed, mediator.counters().audit_links_committed);
    }
    return seconds;
  };
  cell.links_committed = std::numeric_limits<std::size_t>::max();
  std::vector<double> plain_s;
  std::vector<double> audit_s;
  std::vector<double> ratios;  // audit/plain within one round
  for (std::size_t round = 0; round < rounds; ++round) {
    const bool audit_first = round % 2 == 1;
    for (const bool audit : {audit_first, !audit_first}) {
      (audit ? audit_s : plain_s).push_back(timed_round(audit, round));
    }
    ratios.push_back(audit_s.back() / plain_s.back());
  }
  const double per_save_ms = 1e3 / static_cast<double>(saves);
  cell.plain_ms_per_save = median(plain_s) * per_save_ms;
  cell.audit_ms_per_save = median(audit_s) * per_save_ms;
  cell.overhead = median(ratios) - 1.0;
  return cell;
}

struct OpenCell {
  std::size_t chain_links = 0;
  double open_ms = 0;
};

/// Builds a document whose served chain holds `links` entries, then times
/// a cold mediator verifying it at open.
OpenCell run_open_cell(std::size_t links, std::size_t repeats) {
  OpenCell cell;
  cell.chain_links = links;

  cloud::GDocsServer server;
  DirectChannel channel(&server);
  {
    extension::GDocsMediator writer(&channel, mediator_config(true, 41));
    FormData create;
    create.add("cmd", "create");
    std::uint64_t rev = parse_rev(
        writer
            .round_trip(net::HttpRequest::post_form(kTarget, create.encode()))
            .body);
    std::string text = make_body(2'048, 17);
    for (std::size_t i = 0; i + 1 < links; ++i) {
      text[i % text.size()] = text[i % text.size()] == 'q' ? 'z' : 'q';
      FormData f;
      f.add("session", "1");
      f.add("rev", std::to_string(rev));
      f.add("docContents", text);
      const net::HttpResponse resp =
          writer.round_trip(net::HttpRequest::post_form(kTarget, f.encode()));
      if (!resp.ok()) {
        std::fprintf(stderr, "FAIL: chain build save: HTTP %d\n", resp.status);
        std::exit(1);
      }
      rev = parse_rev(resp.body);
    }
  }

  double total_s = 0;
  FormData open;
  open.add("cmd", "open");
  for (std::size_t i = 0; i < repeats; ++i) {
    extension::GDocsMediator reader(&channel,
                                    mediator_config(true, 43 + i));
    total_s += bench::time_seconds([&] {
      const net::HttpResponse resp = reader.round_trip(
          net::HttpRequest::post_form(kTarget, open.encode()));
      if (!resp.ok()) {
        std::fprintf(stderr, "FAIL: audited open: HTTP %d\n", resp.status);
        std::exit(1);
      }
    });
  }
  cell.open_ms = total_s * 1e3 / static_cast<double>(repeats);
  return cell;
}

int run(bool quick, const std::string& out_path) {
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{4'096}
            : std::vector<std::size_t>{1'024, 4'096, 16'384, 65'536};
  const std::size_t saves = 32;
  const std::size_t rounds = 21;
  const std::vector<std::size_t> chains =
      quick ? std::vector<std::size_t>{16}
            : std::vector<std::size_t>{4, 16, 64, 256};
  const std::size_t open_repeats = quick ? 3 : 10;

  std::string report = "[";
  bool failed = false;
  const auto emit = [&](const std::string& line) {
    std::printf("%s\n", line.c_str());
    report += (report.size() > 1 ? ",\n " : "") + line;
  };
  char buf[512];

  std::printf("# audit_overhead: sizes=%zu saves=%zu rounds=%zu\n",
              sizes.size(), saves, rounds);
  for (const std::size_t chars : sizes) {
    const SaveCell c = run_save_cell(chars, saves, rounds);
    std::snprintf(buf, sizeof buf,
                  "{\"bench\":\"save_audit\",\"doc_chars\":%zu,"
                  "\"plain_ms_per_save\":%.3f,\"audit_ms_per_save\":%.3f,"
                  "\"overhead_pct\":%.1f,\"links_committed\":%zu}",
                  c.doc_chars, c.plain_ms_per_save, c.audit_ms_per_save,
                  c.overhead * 100.0, c.links_committed);
    emit(buf);
    if (c.links_committed < saves) {
      std::fprintf(stderr,
                   "FAIL: only %zu of %zu saves committed a chain link\n",
                   c.links_committed, saves);
      failed = true;
    }
    if (chars == 4'096 && c.overhead > 0.10) {
      std::fprintf(stderr,
                   "FAIL: audit adds %.1f%% at 4096 chars "
                   "(acceptance ceiling is 10%%)\n",
                   c.overhead * 100.0);
      failed = true;
    }
  }

  for (const std::size_t links : chains) {
    const OpenCell c = run_open_cell(links, open_repeats);
    std::snprintf(buf, sizeof buf,
                  "{\"bench\":\"open_audit\",\"chain_links\":%zu,"
                  "\"open_ms\":%.3f}",
                  c.chain_links, c.open_ms);
    emit(buf);
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
  std::string out = "BENCH_pr10.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }
  return privedit::run(quick, out);
}
