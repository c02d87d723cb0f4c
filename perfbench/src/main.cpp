// perfbench — outside-in editing benchmark for privedit.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--data DIR]
//
// --trace 0 runs the workload untraced and reports the end-to-end
// metrics. --trace 1 runs it untraced and then traced (spans, counters
// and probes on), and reports the per-layer metrics plus the tracing
// overhead (traced minus untraced op time). Every metric is printed as a
// JSON row {workload, metric, unit, value, samples, seed}; the last line
// of stdout is the summary object {correct, attempted, failed, metrics}.
// A human-readable table goes to stderr. Exit status 1 means a
// correctness check failed (the summary then says "correct": false).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Row {
  std::string metric;
  std::string unit;
  double value = 0;
  std::size_t samples = 0;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// A round in which the host ran other tenants for more than this share
/// of the CPU time the VM asked for measured them more than the program.
/// While sizing on a 4-vCPU VM, type_4k_tcp rounds that lost 16–57% ran
/// at 129–461 ops/s against 620–731 for rounds of the same run that lost
/// under 6%, and even 1–2% cost 10–20%; rounds on a quiet host lose
/// under 1%.
constexpr double kMaxStolenShare = 0.01;

/// The rounds the timings come from: every round that lost at most
/// kMaxStolenShare, or, when fewer than half did, the half that lost
/// least. The choice reads only the host's steal counter, never the
/// program's timings, so a slowdown the program causes is kept.
std::vector<const RoundTimes*> timed_rounds(const PassResult& r) {
  std::vector<const RoundTimes*> rounds;
  for (const RoundTimes& rt : r.rounds) rounds.push_back(&rt);
  std::stable_sort(rounds.begin(), rounds.end(),
                   [](const RoundTimes* a, const RoundTimes* b) {
                     return a->stolen_share < b->stolen_share;
                   });
  std::size_t keep = (rounds.size() + 1) / 2;
  while (keep < rounds.size() &&
         rounds[keep]->stolen_share <= kMaxStolenShare) {
    ++keep;
  }
  rounds.resize(keep);
  return rounds;
}

std::vector<Row> end_to_end(const PassResult& r) {
  // Every timing pools the samples of the timed rounds; a row's samples
  // are exactly the ops its value was computed from. The byte metrics
  // cover every round, so they repeat exactly for one seed.
  const std::vector<const RoundTimes*> timed = timed_rounds(r);
  const auto latency = [&](const char* name, OpKind kind, double q) {
    std::vector<double> all;
    for (const RoundTimes* rt : timed) {
      const auto it = rt->op_ms.find(kind);
      if (it == rt->op_ms.end()) continue;
      all.insert(all.end(), it->second.begin(), it->second.end());
    }
    return Row{name, "ms", quantile(all, q), all.size()};
  };
  double window_s = 0;
  std::uint64_t window_ops = 0;
  std::vector<double> setup_s;
  for (const RoundTimes* rt : timed) {
    window_s += rt->window_s;
    window_ops += rt->ops();
    setup_s.push_back(rt->setup_s);
  }
  const double ops = double(r.ops());
  return {
      latency("keystroke_ms_p50", OpKind::kKeystroke, 0.50),
      latency("keystroke_ms_p95", OpKind::kKeystroke, 0.95),
      latency("save_ms_p50", OpKind::kSave, 0.50),
      latency("save_ms_p90", OpKind::kSave, 0.90),
      latency("open_ms_p50", OpKind::kOpen, 0.50),
      latency("open_ms_p90", OpKind::kOpen, 0.90),
      {"ops_per_s", "1/s", window_s > 0 ? double(window_ops) / window_s : 0,
       window_ops},
      {"wire_bytes_per_op", "B", ops > 0 ? double(r.wire_bytes) / ops : 0,
       r.ops()},
      {"write_bytes_per_op", "B", ops > 0 ? double(r.write_bytes) / ops : 0,
       r.ops()},
      {"peak_rss_mb", "MB", peak_rss_mb(), 1},
      {"setup_s", "s", quantile(setup_s, 0.5), setup_s.size()},
      {"error_rate", "ratio",
       r.attempted > 0 ? double(r.failed) / double(r.attempted) : 0,
       r.attempted},
  };
}

// Extension-side calls each op kind makes, as the probes time them. The
// part of extension.self_ms these do not explain is the unattributed
// remainder.
const std::map<OpKind, std::vector<std::string>> kExplained = {
    {OpKind::kKeystroke,
     {"enc.transform_ms", "enc.ciphertext_doc_ms", "crypto.sha256_container_ms",
      "util.crc32_container_ms", "delta.codec_ms",
      "extension.journal_append_ms", "extension.journal_ack_ms",
      "extension.audit_stage_commit_ms", "util.form_codec_ms"}},
    {OpKind::kSave,
     {"enc.encrypt_full_ms", "crypto.sha256_container_ms",
      "util.crc32_container_ms", "extension.journal_append_ms",
      "extension.journal_ack_ms", "extension.audit_stage_commit_ms",
      "util.form_codec_ms"}},
    {OpKind::kOpen,
     {"enc.load_ms", "extension.audit_verify_ms", "enc.audit_chain_codec_ms",
      "util.form_codec_ms"}},
};

const std::vector<std::string> kProbes = {
    "enc.transform_ms",          "enc.ciphertext_doc_ms",
    "crypto.sha256_container_ms", "util.crc32_container_ms",
    "delta.codec_ms",            "delta.apply_container_ms",
    "cloud.history_copy_ms",     "extension.journal_append_ms",
    "extension.journal_ack_ms",  "extension.audit_stage_commit_ms",
    "enc.audit_chain_codec_ms",  "util.form_codec_ms",
    "enc.encrypt_full_ms",       "cloud.file_store_put_ms",
    "crypto.kdf_ms",             "enc.load_ms",
    "extension.audit_verify_ms"};

std::vector<Row> per_layer(PassResult& t, const PassResult& plain) {
  const double ops = double(std::max<std::uint64_t>(1, t.ops()));
  const auto c = [&](const char* name) { return t.counters[name]; };
  const auto l = [&](const char* name) { return t.layer_ms[name]; };
  const std::size_t n = t.ops();
  std::vector<Row> rows = {
      {"extension.self_ms", "ms", l("extension.self_ms") / ops, n},
      {"net.upstream_ms", "ms", l("net.upstream_ms") / ops, n},
      {"net.self_ms", "ms", l("net.self_ms") / ops, n},
      {"net.attempts_per_op", "count", c("net.attempts") / ops, n},
      {"net.retries", "count", c("net.retries"), n},
      {"net.server_rejected", "count", c("net.server_rejected"), n},
      {"net.backlog_max", "count", c("net.backlog_max"), n},
      {"cloud.handle_ms", "ms", l("cloud.handle_ms") / ops, n},
      {"cloud.self_ms", "ms", l("cloud.self_ms") / ops, n},
      {"cloud.store_put_ms", "ms", l("cloud.store_put_ms") / ops, n},
      {"cloud.store_put_bytes_per_op", "B", c("cloud.store_put_bytes") / ops, n},
      {"cloud.audit_put_ms", "ms", l("cloud.audit_put_ms") / ops, n},
      {"cloud.audit_put_bytes_per_op", "B", c("cloud.audit_put_bytes") / ops, n},
      {"cloud.history_mb", "MB", c("cloud.history_bytes") / 1e6, 1},
      {"cloud.router_refusals", "count", c("cloud.router_refusals"), n},
      {"wire.up_bytes_per_op", "B", c("wire.up_bytes") / ops, n},
      {"wire.down_bytes_per_op", "B", c("wire.down_bytes") / ops, n},
      {"wire.achain_bytes_per_op", "B", c("wire.achain_bytes") / ops, n},
      {"extension.journal_appends_per_op", "count",
       c("extension.journal_appends") / ops, n},
      {"extension.audit_links_per_op", "count", c("extension.audit_links") / ops,
       n},
      {"extension.audit_chain_retries", "count",
       c("extension.audit_chain_retries"), n},
      {"extension.witnesses_published_per_op", "count",
       c("extension.witnesses_published") / ops, n},
  };
  for (const std::string& probe : kProbes) {
    const std::vector<double>& v = t.probe_ms[probe];
    rows.push_back({probe, "ms", quantile(v, 0.5), v.size()});
  }

  double explained = 0;
  for (const auto& [kind, names] : kExplained) {
    for (const std::string& name : names) {
      explained += quantile(t.probe_ms_by_op[kind][name], 0.5) *
                   double(t.window_ops(kind));
    }
  }
  const double total = std::max(t.op_ms_total, 1e-9);
  const double unattributed = l("extension.self_ms") - explained;
  double plain_total = 0;
  for (const RoundTimes& rt : plain.rounds) plain_total += rt.window_op_ms;
  const double plain_mean =
      plain_total / double(std::max<std::uint64_t>(1, plain.ops()));
  const double traced_mean = t.op_ms_total / ops;
  rows.insert(rows.end(), {
      {"share.extension", "ratio", l("extension.self_ms") / total, n},
      {"share.net", "ratio", l("net.self_ms") / total, n},
      {"share.cloud", "ratio", l("cloud.self_ms") / total, n},
      {"share.store", "ratio",
       (l("cloud.store_put_ms") + l("cloud.audit_put_ms")) / total, n},
      {"share.unattributed", "ratio", unattributed / total, n},
      {"trace.unattributed_ms", "ms", unattributed / ops, n},
      {"trace.span_gap_ms", "ms", t.span_gap_ms / ops, n},
      {"trace.copy_ms", "ms", l("trace.copy_ms") / ops, n},
      {"trace.overhead_ms", "ms", traced_mean - plain_mean, n},
      {"trace.overhead_share", "ratio",
       plain_mean > 0 ? (traced_mean - plain_mean) / plain_mean : 0, n},
  });
  return rows;
}

/// Per-round timings on stderr, with the share of CPU time the host stole
/// during each round and whether the timings use it: shows whether a tail
/// change hits every round or only some.
void print_rounds(const PassResult& r) {
  const std::vector<const RoundTimes*> timed = timed_rounds(r);
  const auto q = [](const RoundTimes& rt, OpKind kind, double p) {
    const auto it = rt.op_ms.find(kind);
    return it == rt.op_ms.end() ? 0.0 : quantile(it->second, p);
  };
  std::fprintf(stderr, "  round  key_p50  key_p95  save_p50 save_p90 "
                       "open_p50 open_p90    ops/s  stolen timed\n");
  for (std::size_t i = 0; i < r.rounds.size(); ++i) {
    const RoundTimes& rt = r.rounds[i];
    std::fprintf(stderr,
                 "  %5zu %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.1f %7.3f %s\n",
                 i, q(rt, OpKind::kKeystroke, 0.50),
                 q(rt, OpKind::kKeystroke, 0.95), q(rt, OpKind::kSave, 0.50),
                 q(rt, OpKind::kSave, 0.90), q(rt, OpKind::kOpen, 0.50),
                 q(rt, OpKind::kOpen, 0.90),
                 rt.window_s > 0 ? double(rt.ops()) / rt.window_s : 0.0,
                 rt.stolen_share,
                 std::find(timed.begin(), timed.end(), &rt) != timed.end()
                     ? "yes"
                     : "no");
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

void print_rows(const Options& o, const std::vector<Row>& rows) {
  for (const Row& r : rows) {
    std::cout << "{\"workload\": " << json_string(o.workload)
              << ", \"metric\": " << json_string(r.metric)
              << ", \"unit\": " << json_string(r.unit)
              << ", \"value\": " << json_number(r.value)
              << ", \"samples\": " << r.samples << ", \"seed\": " << o.seed
              << "}\n";
    std::fprintf(stderr, "  %-38s %14.4f %-6s (n=%zu)\n", r.metric.c_str(),
                 r.value, r.unit.c_str(), r.samples);
  }
}

void print_summary(bool correct, std::uint64_t attempted, std::uint64_t failed,
                   const std::vector<Row>& rows) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const Row& r : rows) {
    if (r.metric == "error_rate") continue;  // reported as failed/attempted
    std::cout << (first ? "" : ", ") << json_string(r.metric)
              << ": {\"value\": " << json_number(r.value)
              << ", \"unit\": " << json_string(r.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

bool report_failures(const char* pass, const PassResult& r) {
  for (const std::string& f : r.check_failures) {
    std::fprintf(stderr, "CHECK FAILED (%s): %s\n", pass, f.c_str());
  }
  return r.check_failures.empty() && r.failed == 0;
}

Options parse(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) throw std::invalid_argument("every flag takes a value");
  o.workload = flags.at("workload");
  o.seed = std::stoull(flags.count("seed") ? flags["seed"] : "1");
  o.seconds = std::stoi(flags.count("seconds") ? flags["seconds"] : "10");
  o.trace = (flags.count("trace") ? flags["trace"] : "0") != "0";
  o.data_dir = flags.count("data")
                   ? flags["data"]
                   : ".perfbench_run/" + o.workload + "-" +
                         std::to_string(::getpid());
  if (o.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  return o;
}

int run(const Options& o) {
  std::fprintf(stderr, "perfbench %s seed=%llu seconds=%d trace=%d\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.seconds, o.trace ? 1 : 0);
  const PassResult plain = run_pass(o, /*traced=*/false);
  const std::vector<Row> e2e = end_to_end(plain);
  print_rounds(plain);
  print_rows(o, e2e);
  bool correct = report_failures("untraced", plain);
  if (!o.trace) {
    print_summary(correct, plain.attempted, plain.failed, e2e);
    return correct ? 0 : 1;
  }
  PassResult traced = run_pass(o, /*traced=*/true);
  const std::vector<Row> layers = per_layer(traced, plain);
  std::fprintf(stderr, "per-layer (traced):\n");
  print_rows(o, layers);
  if (std::abs(traced.span_gap_ms) > 1e-3 * double(traced.ops())) {
    traced.fail("self times of the real spans do not sum to the op time");
  }
  correct = report_failures("traced", traced) && correct;
  print_summary(correct, plain.attempted + traced.attempted,
                plain.failed + traced.failed, layers);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    options = perfbench::parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--data DIR] (%s)\n",
                 e.what());
    return 2;
  }
  int status = 1;
  try {
    status = perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  std::error_code ec;
  std::filesystem::remove_all(options.data_dir, ec);
  return status;
}
