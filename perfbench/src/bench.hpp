#pragma once
// Shared types of the outside-in editing benchmark: run options, the
// per-pass result record, and the probe interface the workloads call.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed editor operation. A workload's timed window runs its own
/// mix of them; the kinds that mix lacks run in a short side phase after
/// the window, which feeds only their latency metrics.
enum class OpKind { kKeystroke, kSave, kOpen };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir;  // scratch directory for this process
};

/// Op latencies, setup and timed window of one round, and how much CPU
/// time the host stole from the VM while the round ran.
struct RoundTimes {
  std::map<OpKind, std::vector<double>> op_ms;  // window and side phase
  std::map<OpKind, std::uint64_t> window_ops;   // ops inside the window
  double window_op_ms = 0;                      // their summed latency
  double window_s = 0;
  double setup_s = 0;
  double stolen_share = 0;  // of the CPU time the VM asked for

  std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (const auto& [kind, count] : window_ops) n += count;
    return n;
  }
};

/// Everything one pass over a workload measured. Per-layer fields are
/// filled by traced passes only.
struct PassResult {
  std::vector<RoundTimes> rounds;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Both over the timed windows only, all editors.
  std::uint64_t wire_bytes = 0;   // request + response bodies
  std::uint64_t write_bytes = 0;  // wchar delta
  std::vector<std::string> check_failures;

  // Per-layer (traced passes). Counters, self times and op time cover
  // the timed windows only; probes also run in the side phase.
  std::map<std::string, double> counters;              // summed over rounds
  std::map<std::string, std::vector<double>> probe_ms;  // one sample per call
  std::map<OpKind, std::map<std::string, std::vector<double>>> probe_ms_by_op;
  std::map<std::string, double> layer_ms;  // self time, summed over ops
  double op_ms_total = 0;                  // root-span time, summed over ops
  double span_gap_ms = 0;  // op time not covered by any self time

  /// Ops inside the timed windows: what ops_per_s and the per-op byte
  /// and per-layer metrics divide by.
  std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (const RoundTimes& rt : rounds) n += rt.ops();
    return n;
  }
  std::uint64_t window_ops(OpKind kind) const {
    std::uint64_t n = 0;
    for (const RoundTimes& rt : rounds) {
      if (const auto it = rt.window_ops.find(kind); it != rt.window_ops.end()) {
        n += it->second;
      }
    }
    return n;
  }
  void fail(std::string why) { check_failures.push_back(std::move(why)); }
};

PassResult run_pass(const Options& options, bool traced);

}  // namespace perfbench
