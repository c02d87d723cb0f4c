#pragma once
// Probe spans: each probe replays one public call of a layer on shadow
// state built from a copy of the live state (same size, same point in the
// run), times it, and checks its output against what the live layer
// produced for the same input. Probes never touch the mediator, server or
// files the end-to-end numbers come from; they run between operations, so
// no probe time lands inside an operation's span.
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "privedit/extension/audit.hpp"
#include "privedit/enc/scheme.hpp"
#include "privedit/extension/journal.hpp"
#include "privedit/extension/session.hpp"
#include "privedit/util/bytes.hpp"

#include "bench.hpp"
#include "seams.hpp"

namespace perfbench {

/// The chain tip a reading device last verified (its committed head).
struct DeviceTip {
  bool known = false;
  std::uint64_t rev = 0;
  privedit::Bytes head;
};

/// The chain tip an open's response served, i.e. the reading device's
/// committed head once the open verified it.
DeviceTip served_tip(const Exchange& open);

class Prober {
 public:
  /// `shadow_dir` is created if absent and holds every file the probes
  /// write (shadow journals, audit logs, a shadow FileStore).
  Prober(std::string password, std::string client_id, std::string shadow_dir,
         PassResult* out);
  ~Prober();
  Prober(const Prober&) = delete;
  Prober& operator=(const Prober&) = delete;

  /// A delta save: `pre`/`post` are the live container before and after
  /// it, `exchange` the upstream request/response the mediator sent.
  void keystroke(const std::string& doc_id, const std::string& pre,
                 const std::string& post, const std::string& post_plain,
                 const std::string& pdelta_wire, const Exchange& exchange);

  /// A full docContents save of `text` over the container `pre`.
  void save(const std::string& doc_id, const std::string& pre,
            const std::string& text, const Exchange& exchange);

  /// A cold open that should have served `expected`; `tip` is the
  /// reading device's committed head before the open.
  void open(const std::string& doc_id, const std::string& expected,
            const Exchange& exchange, const DeviceTip& tip);

 private:
  struct Shadow;
  Shadow& shadow(const std::string& doc_id);
  void record(const char* probe, double ms) {
    out_->probe_ms[probe].push_back(ms);
    out_->probe_ms_by_op[kind_][probe].push_back(ms);
  }
  void common_save_path(const std::string& doc_id, Shadow& s,
                        const std::string& pre, const std::string& post,
                        bool full_save, const std::string& update,
                        const Exchange& exchange);
  void bodies(const Exchange& exchange);
  /// Scheme state rebuilt from a copy of the live container.
  std::unique_ptr<privedit::enc::IncrementalScheme> replica(
      Shadow& s, const std::string& container);

  std::string password_;
  std::string client_id_;
  std::string shadow_dir_;
  PassResult* out_;
  OpKind kind_ = OpKind::kKeystroke;  // op the current probes replay
  privedit::extension::RngFactory rng_;
  std::map<std::string, std::unique_ptr<Shadow>> shadows_;
};

}  // namespace perfbench
