// Keystroke cost against document size (ROADMAP aim 1: a keystroke should
// cost the same whatever the document size).
//
// One editor types into one document of 4,096, 131,072 and 1,048,576
// characters, in process, configured as perfbench's type_128k: RPC with
// 8-char blocks, the write-ahead journal and the audit chain on, and the
// server persisting documents and audit sidecars to a FileStore. Each
// keystroke is one TypingSession edit sent as a delta through the
// mediator. Per size it reports
//
//   keystroke_ms_p50 / _p95  end to end, the mediator's round_trip
//   extension.self_ms        median of (round_trip - time inside the server)
//   cloud.handle_ms          median time inside GDocsServer::handle
//
// as perfbench rows {workload, metric, unit, value, samples, seed}, one
// JSON line each on stdout (the table goes to stderr). After the
// keystrokes it checks that the server's stored container equals the
// mediator's re-serialised one (managed_ciphertext) and exits 1 if not.
// Report only: the journal checksum, the audit CRC and the server's
// whole-record put still read the whole container, so no size gate yet.
//
//   keystroke_sweep [--quick] [--seed N]
//
// --quick types 20 keystrokes per size instead of 200. The server keeps a
// 4-version history (perfbench keeps all of them) to bound memory at 1M.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/extension/mediator.hpp"
#include "privedit/net/transport.hpp"
#include "privedit/util/random.hpp"
#include "privedit/util/urlencode.hpp"
#include "privedit/workload/corpus.hpp"
#include "privedit/workload/edits.hpp"

namespace privedit {
namespace {

namespace fs = std::filesystem;

constexpr const char* kTarget = "/Doc?docID=sweep";

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The server behind a direct call, with the time spent inside it summed.
class TimedServerChannel final : public net::Channel {
 public:
  explicit TimedServerChannel(cloud::GDocsServer* server) : server_(server) {}
  net::HttpResponse round_trip(const net::HttpRequest& request) override {
    const double t0 = now_ms();
    net::HttpResponse resp = server_->handle(request);
    server_ms += now_ms() - t0;
    return resp;
  }
  double server_ms = 0.0;

 private:
  cloud::GDocsServer* server_;
};

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(i, xs.size() - 1)];
}

std::string size_label(std::size_t chars) {
  if (chars >= (1u << 20)) return std::to_string(chars >> 20) + "m";
  return std::to_string(chars >> 10) + "k";
}

struct Cell {
  std::vector<double> total_ms;
  std::vector<double> extension_ms;
  std::vector<double> server_ms;
  bool stored_matches = false;
};

Cell run_cell(std::size_t chars, std::size_t keystrokes, std::uint64_t seed,
              const fs::path& dir) {
  cloud::GDocsServer server;
  server.enable_persistence((dir / "server").string());
  server.set_history_limit(4);
  TimedServerChannel upstream(&server);
  extension::MediatorConfig mc;
  mc.password = "sweep-pw";
  mc.scheme.mode = enc::Mode::kRpc;
  mc.scheme.block_chars = 8;
  mc.rng_factory = extension::seeded_rng_factory(seed);
  mc.journal_dir = (dir / "client").string();
  mc.audit = true;
  mc.client_id = "sweep";
  extension::GDocsMediator mediator(&upstream, mc);

  Xoshiro256 rng(seed);
  std::string text = workload::random_document(rng, chars);
  text.resize(chars);
  workload::TypingSession typing(std::move(text), &rng);

  const net::HttpResponse created = mediator.round_trip(
      net::HttpRequest::post_form(kTarget, "cmd=create"));
  const std::string session =
      FormData::parse(created.body).get("session").value_or("");
  std::uint64_t rev = std::stoull(
      FormData::parse(created.body).get("rev").value_or("0"));
  const auto send = [&](const char* field, const std::string& value) {
    FormData form;
    form.add("session", session);
    form.add("rev", std::to_string(rev));
    form.add(field, value);
    const net::HttpResponse resp = mediator.round_trip(
        net::HttpRequest::post_form(kTarget, form.encode()));
    if (!resp.ok()) {
      std::fprintf(stderr, "FAIL: %s save answered %d\n", field, resp.status);
      std::exit(1);
    }
    rev = std::stoull(FormData::parse(resp.body).get("rev").value_or("0"));
  };
  send("docContents", typing.document());

  Cell cell;
  for (std::size_t k = 0; k < keystrokes; ++k) {
    delta::Delta edit = typing.keystroke();
    while (edit.empty()) edit = typing.keystroke();  // skip cursor jumps
    const std::string wire = edit.to_wire();
    upstream.server_ms = 0.0;
    const double t0 = now_ms();
    send("delta", wire);
    const double total = now_ms() - t0;
    cell.total_ms.push_back(total);
    cell.server_ms.push_back(upstream.server_ms);
    cell.extension_ms.push_back(total - upstream.server_ms);
  }
  cell.stored_matches = server.raw_content("sweep").has_value() &&
                        server.raw_content("sweep") ==
                            mediator.managed_ciphertext("sweep");
  return cell;
}

int run(bool quick, std::uint64_t seed) {
  const std::vector<std::size_t> sizes = {4'096, 131'072, 1'048'576};
  const std::size_t keystrokes = quick ? 20 : 200;
  const fs::path base =
      fs::temp_directory_path() /
      ("privedit-keystroke-sweep-" + std::to_string(::getpid()));
  bool failed = false;
  std::fprintf(stderr, "%-10s %10s %10s %14s %12s\n", "workload", "p50 ms",
               "p95 ms", "extension ms", "cloud ms");
  for (const std::size_t chars : sizes) {
    fs::remove_all(base);
    const Cell cell = run_cell(chars, keystrokes, seed, base);
    const std::string workload = "type_" + size_label(chars);
    const struct {
      const char* metric;
      double value;
    } rows[] = {
        {"keystroke_ms_p50", percentile(cell.total_ms, 0.5)},
        {"keystroke_ms_p95", percentile(cell.total_ms, 0.95)},
        {"extension.self_ms", percentile(cell.extension_ms, 0.5)},
        {"cloud.handle_ms", percentile(cell.server_ms, 0.5)},
    };
    for (const auto& row : rows) {
      std::printf(
          "{\"workload\": \"%s\", \"metric\": \"%s\", \"unit\": \"ms\", "
          "\"value\": %.4f, \"samples\": %zu, \"seed\": %llu}\n",
          workload.c_str(), row.metric, row.value, cell.total_ms.size(),
          static_cast<unsigned long long>(seed));
    }
    std::fprintf(stderr, "%-10s %10.3f %10.3f %14.3f %12.3f\n",
                 workload.c_str(), rows[0].value, rows[1].value, rows[2].value,
                 rows[3].value);
    if (!cell.stored_matches) {
      std::fprintf(stderr,
                   "FAIL: %s: stored container differs from the mediator's\n",
                   workload.c_str());
      failed = true;
    }
  }
  fs::remove_all(base);
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace privedit

int main(int argc, char** argv) {
  bool quick = false;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  return privedit::run(quick, seed);
}
