// The three workloads. Each is a closed loop: an editor sends its next
// request only after the previous ack returned. A run is a few rounds;
// each round builds the serve stack afresh on an empty data directory
// (that build is one setup_s sample), runs the timed window, runs the
// side phase, then checks every output against the generator's ground
// truth.
//
//   type_128k           1 editor, one 131,072-char document, in process:
//                       GDocsServer behind CountingStore decorators over
//                       FileStore. The window sends keystrokes only; no
//                       net, no router.
//   type_4k_tcp         3 editor threads x 4 documents of 4,096 chars over
//                       TcpChannel into HttpServer + 2-shard ShardRouter
//                       with a data_dir, as `privedit_cli serve` builds it.
//                       The window sends keystrokes only.
//   autosave_open_128k  1 writer: a few local edits (not sent), then a
//                       full docContents save of a 131,072-char document;
//                       after each save a second device cold-opens it.
//                       Same TCP stack.
//
// Every end-to-end latency metric needs samples on every workload, so
// after the window the editors, one at a time, run a short side phase of
// the op kinds the window lacks: autosave cycles on the typing workloads,
// keystrokes on autosave_open_128k. Side-phase ops feed only their latency
// metrics; ops_per_s, the byte metrics and the per-layer counters and self
// times cover the window alone.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/cloud/shard_router.hpp"
#include "privedit/crypto/sha256.hpp"
#include "privedit/extension/journal.hpp"
#include "privedit/extension/mediator.hpp"
#include "privedit/extension/session.hpp"
#include "privedit/net/http_server.hpp"
#include "privedit/util/hex.hpp"
#include "privedit/util/random.hpp"
#include "privedit/util/urlencode.hpp"
#include "privedit/workload/corpus.hpp"
#include "privedit/workload/edits.hpp"

#include "bench.hpp"
#include "probes.hpp"
#include "seams.hpp"

namespace perfbench {

using namespace privedit;
namespace fs = std::filesystem;

namespace {

constexpr const char* kPassword = "perfbench correct horse";
constexpr std::size_t kServerWorkers = 2;  // HttpServer pool on TCP stacks

struct WorkloadSpec {
  const char* name;
  bool tcp;
  std::size_t editors;
  std::size_t docs_per_editor;
  std::size_t doc_chars;
  bool autosave;  // window: autosave cycles, not keystrokes
  double ops_per_second;  // window op budget per --seconds, on a 4-core box
  std::size_t rounds;
  std::size_t side_ops;  // per editor and round: cycles or keystrokes
  std::size_t probe_every;  // traced passes probe every Nth op of each kind
};

// An autosave cycle: this many local edits, one full save, one cold open.
constexpr std::size_t kEditsPerSave = 3;

// ops_per_second sets how many window ops one --seconds buys; the count is
// fixed by (workload, --seconds), never by the clock, so every count-based
// metric repeats exactly for one seed.
constexpr WorkloadSpec kSpecs[] = {
    {"type_128k", false, 1, 1, 131'072, false, 33, 10, 5, 4},
    {"type_4k_tcp", true, 3, 4, 4'096, false, 400, 10, 5, 4},
    {"autosave_open_128k", true, 1, 1, 131'072, true, 12, 4, 16, 1},
};

const WorkloadSpec& spec_for(const std::string& name) {
  for (const WorkloadSpec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Flushes the filesystem holding `dir`. Rounds call it before setup and
/// after deleting their data, so writeback and discards left by earlier
/// rounds (or runs) are paid outside every timed window.
void sync_filesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw std::runtime_error("cannot open " + dir);
  const int rc = ::syncfs(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("syncfs failed on " + dir);
}

/// The VM's CPU time so far, from the first line of /proc/stat, in ticks.
struct CpuTicks {
  double busy = 0;    // user, nice, system, irq, softirq and steal
  double stolen = 0;  // steal: a virtual CPU was ready, the host ran
                      // something else
};

CpuTicks read_cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  if (!stat || cpu != "cpu") return {};  // not reported: nothing is stolen
  return {user + nice + system + irq + softirq + steal, steal};
}

/// Share of the CPU time the VM wanted between two readings that the
/// host gave to someone else.
double stolen_share(const CpuTicks& before, const CpuTicks& after) {
  const double busy = after.busy - before.busy;
  return busy > 0 ? (after.stolen - before.stolen) / busy : 0;
}

std::uint64_t read_wchar() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  throw std::runtime_error("/proc/self/io has no wchar");
}

std::uint64_t form_u64(const std::string& body, std::string_view key) {
  const auto v = FormData::parse(body).get(key);
  return v ? std::stoull(*v) : 0;
}

std::string content_hash16(const std::string& content) {
  return hex_encode(crypto::Sha256::hash(as_bytes(content))).substr(0, 16);
}

extension::MediatorConfig mediator_config(const std::string& client_id,
                                          const std::string& journal_dir,
                                          std::uint64_t rng_seed) {
  extension::MediatorConfig mc;
  mc.password = kPassword;
  mc.scheme.mode = enc::Mode::kRpc;
  mc.scheme.block_chars = 8;
  mc.rng_factory = extension::seeded_rng_factory(rng_seed);
  mc.journal_dir = journal_dir;
  mc.audit = true;
  mc.client_id = client_id;
  return mc;
}

using Counters = std::map<std::string, double>;

void add_into(Counters& into, const Counters& after, const Counters& before) {
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    into[k] += v - (it == before.end() ? 0.0 : it->second);
  }
}

/// The server side of one round, plus the hooks the benchmark reads.
class Stack {
 public:
  virtual ~Stack() = default;
  virtual std::unique_ptr<net::Channel> channel() = 0;
  virtual std::optional<std::string> stored(const std::string& doc_id) = 0;
  virtual std::size_t history_bytes(const std::string& doc_id) = 0;
  virtual Counters snapshot() const = 0;
  virtual std::size_t backlog() const { return 0; }
};

class InProcessStack final : public Stack {
 public:
  InProcessStack(const std::string& dir, Tracer* tracer) {
    // What GDocsServer::enable_persistence(dir) builds, with a counting
    // decorator on each of the two stores.
    auto docs = std::make_unique<CountingStore>(
        std::make_unique<cloud::FileStore>(dir), tracer, "cloud.store_put");
    auto audit = std::make_unique<CountingStore>(
        std::make_unique<cloud::FileStore>(dir + "/.audit"), tracer,
        "cloud.audit_put");
    docs_ = docs.get();
    audit_ = audit.get();
    server_.enable_persistence(std::move(docs));
    server_.enable_audit_persistence(std::move(audit));
    handler_ = traced_handler(
        [this](const net::HttpRequest& r) { return server_.handle(r); },
        tracer);
  }

  std::unique_ptr<net::Channel> channel() override {
    return std::make_unique<DirectChannel>(handler_);
  }
  std::optional<std::string> stored(const std::string& doc_id) override {
    return server_.raw_content(doc_id);
  }
  std::size_t history_bytes(const std::string& doc_id) override {
    std::size_t n = 0;
    for (const std::string& v : server_.history(doc_id)) n += v.size();
    return n;
  }
  Counters snapshot() const override {
    return {{"cloud.store_puts", double(docs_->puts())},
            {"cloud.store_put_bytes", double(docs_->put_bytes())},
            {"cloud.audit_puts", double(audit_->puts())},
            {"cloud.audit_put_bytes", double(audit_->put_bytes())}};
  }

 private:
  cloud::GDocsServer server_;
  CountingStore* docs_ = nullptr;   // owned by server_
  CountingStore* audit_ = nullptr;  // owned by server_
  net::Handler handler_;
};

class TcpStack final : public Stack {
 public:
  TcpStack(const std::string& dir, Tracer* tracer) {
    // As cmd_serve in tools/privedit_cli.cpp: a ShardRouter with a
    // data_dir behind an HttpServer, except for the pool size. serve's
    // default of 8 workers lets 3 handlers run beside 3 editors on 4
    // cores, and the scheduler sets the pace; 2 keep the threads that can
    // run at once within nproc (README, Threads).
    cloud::ShardRouterConfig config;
    config.data_dir = dir;
    router_ = std::make_shared<cloud::ShardRouter>(
        std::vector<std::string>{"s0", "s1"}, config);
    net::HttpServerConfig server_config;
    server_config.worker_threads = kServerWorkers;
    server_ = std::make_unique<net::HttpServer>(
        0,
        traced_handler([router = router_](const net::HttpRequest& r) {
          return router->handle(r);
        }, tracer),
        server_config);
  }
  ~TcpStack() override { server_->stop(); }

  std::unique_ptr<net::Channel> channel() override {
    return std::make_unique<net::TcpChannel>(server_->port());
  }
  std::optional<std::string> stored(const std::string& doc_id) override {
    return router_->raw_content(doc_id);
  }
  std::size_t history_bytes(const std::string& doc_id) override {
    std::size_t n = 0;
    for (const std::string& v :
         router_->shard_server(router_->shard_for(doc_id)).history(doc_id)) {
      n += v.size();
    }
    return n;
  }
  Counters snapshot() const override {
    const net::HttpServer::Counters hc = server_->counters();
    const cloud::ShardRouter::Counters rc = router_->counters();
    return {{"net.server_rejected",
             double(hc.rejected_busy + hc.rejected_admission)},
            {"cloud.router_refusals",
             double(rc.quota_rejections + rc.handoff_rejections +
                    rc.down_rejections + rc.bad_requests)}};
  }
  std::size_t backlog() const override { return server_->backlog(); }

 private:
  std::shared_ptr<cloud::ShardRouter> router_;
  std::unique_ptr<net::HttpServer> server_;
};

struct DocState {
  std::string id;
  std::string target;
  std::unique_ptr<Xoshiro256> rng;
  std::unique_ptr<workload::TypingSession> typing;
  std::string session;
  std::uint64_t rev = 0;
  std::uint64_t acked_saves = 0;
  DeviceTip tip;  // the reading device's committed chain head
};

/// One editor: the writer's mediator and its documents, plus the second
/// device that cold-opens them. Owned and driven by one thread.
struct Editor {
  std::size_t index = 0;
  std::string client_id;
  std::string journal_dir;
  std::string device_dir;
  std::unique_ptr<net::Channel> upstream;
  std::unique_ptr<MeteredChannel> wire;
  std::unique_ptr<extension::GDocsMediator> mediator;
  std::vector<DocState> docs;
  std::unique_ptr<Prober> prober;
  std::map<OpKind, std::vector<double>> op_ms;  // completed ops only
  bool in_window = false;  // ops now running count as window ops
  std::map<OpKind, std::uint64_t> window_ops;
  double window_op_ms = 0;
  PassResult result;  // attempts, failures, checks and probe samples
  Counters counters;  // what this editor's cold-open devices accumulated
  double backlog_max = 0;
  std::map<OpKind, std::size_t> probe_clock;  // ops seen per kind (traced)
  std::size_t opens = 0;
};

class Round {
 public:
  Round(const WorkloadSpec& spec, const Options& options, bool traced,
        std::size_t round, Tracer& tracer)
      : spec_(spec),
        options_(options),
        traced_(traced),
        round_(round),
        tracer_(tracer),
        dir_(options.data_dir + "/" + (traced ? "traced" : "plain") +
             "-round" + std::to_string(round)) {}

  void run(PassResult& out) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    make_editors();
    sync_filesystem(dir_);
    const CpuTicks cpu_before = read_cpu_ticks();
    const std::int64_t setup_start = now_ns();
    setup();
    RoundTimes times;
    times.setup_s = double(now_ns() - setup_start) / 1e9;

    const std::size_t budget = static_cast<std::size_t>(
        spec_.ops_per_second * options_.seconds / double(spec_.rounds) + 0.5);
    const std::size_t per_editor = std::max<std::size_t>(
        1, budget / spec_.editors);
    std::vector<Counters> before;
    for (const auto& ed : editors_) before.push_back(editor_counters(*ed));
    const Counters stack_before = stack_->snapshot();
    const std::uint64_t wire_before = wire_bytes();
    const std::uint64_t wchar_before = read_wchar();
    const std::int64_t t0 = now_ns();
    each_editor(/*concurrent=*/true,
                [this, per_editor](Editor& ed) { window(ed, per_editor); });
    const std::int64_t t1 = now_ns();
    out.write_bytes += read_wchar() - wchar_before;
    out.wire_bytes += wire_bytes() - wire_before;

    if (traced_) {
      add_into(out.counters, stack_->snapshot(), stack_before);
      double history = 0;
      for (std::size_t i = 0; i < editors_.size(); ++i) {
        const Editor& ed = *editors_[i];
        add_into(out.counters, editor_counters(ed), before[i]);
        out.counters["net.backlog_max"] =
            std::max(out.counters["net.backlog_max"], ed.backlog_max);
        for (const DocState& d : ed.docs) {
          history += double(stack_->history_bytes(d.id));
        }
      }
      out.counters["cloud.history_bytes"] =
          std::max(out.counters["cloud.history_bytes"], history);
    }
    // One editor at a time, so a side op's latency does not depend on
    // whether other editors' KDF-bound opens happen to overlap it.
    each_editor(/*concurrent=*/false,
                [this](Editor& ed) { side_phase(ed); });
    verify(out);
    times.stolen_share = stolen_share(cpu_before, read_cpu_ticks());
    times.window_s = double(t1 - t0) / 1e9;
    for (const auto& ed : editors_) {
      for (const auto& [kind, v] : ed->op_ms) {
        auto& dst = times.op_ms[kind];
        dst.insert(dst.end(), v.begin(), v.end());
      }
      for (const auto& [kind, n] : ed->window_ops) times.window_ops[kind] += n;
      times.window_op_ms += ed->window_op_ms;
      merge(out, ed->result);
    }
    out.rounds.push_back(std::move(times));
    editors_.clear();
    stack_.reset();
    fs::remove_all(dir_);
    sync_filesystem(options_.data_dir);
  }

 private:
  void make_editors() {
    for (std::size_t e = 0; e < spec_.editors; ++e) {
      Editor& ed = *editors_.emplace_back(std::make_unique<Editor>());
      ed.index = e;
      ed.client_id = "editor-" + std::to_string(e);
      ed.journal_dir = dir_ + "/client-" + std::to_string(e);
      ed.device_dir = dir_ + "/device-" + std::to_string(e);
      for (std::size_t k = 0; k < spec_.docs_per_editor; ++k) {
        DocState d;
        d.id = "e" + std::to_string(e) + "d" + std::to_string(k);
        d.target = "/Doc?docID=" + d.id;
        d.rng = std::make_unique<Xoshiro256>(
            mix(options_.seed, mix(round_, e * 64 + k)));
        std::string text = workload::random_document(*d.rng, spec_.doc_chars);
        text.resize(spec_.doc_chars);
        d.typing = std::make_unique<workload::TypingSession>(std::move(text),
                                                             d.rng.get());
        ed.docs.push_back(std::move(d));
      }
      if (traced_) {
        ed.prober = std::make_unique<Prober>(
            kPassword, ed.client_id, dir_ + "/shadow-" + std::to_string(e),
            &ed.result);
      }
    }
  }

  void setup() {
    if (spec_.tcp) {
      stack_ = std::make_unique<TcpStack>(dir_ + "/server", &tracer_);
    } else {
      stack_ = std::make_unique<InProcessStack>(dir_ + "/server", &tracer_);
    }
    for (const auto& owned : editors_) {
      Editor& ed = *owned;
      ed.upstream = stack_->channel();
      ed.wire = std::make_unique<MeteredChannel>(ed.upstream.get(), &tracer_);
      ed.mediator = std::make_unique<extension::GDocsMediator>(
          ed.wire.get(),
          mediator_config(ed.client_id, ed.journal_dir,
                          mix(options_.seed, mix(round_, 1000 + ed.index))));
      for (DocState& d : ed.docs) {
        const net::HttpResponse created = ed.mediator->round_trip(
            net::HttpRequest::post_form(d.target, "cmd=create"));
        if (!created.ok()) {
          throw std::runtime_error("setup: create failed for " + d.id);
        }
        d.session = FormData::parse(created.body).get("session").value_or("");
        d.rev = form_u64(created.body, "rev");
        FormData save;
        save.add("session", d.session);
        save.add("rev", std::to_string(d.rev));
        save.add("docContents", d.typing->document());
        const net::HttpResponse saved = ed.mediator->round_trip(
            net::HttpRequest::post_form(d.target, save.encode()));
        if (!saved.ok()) {
          throw std::runtime_error("setup: first save failed for " + d.id);
        }
        d.rev = form_u64(saved.body, "rev");
        ++d.acked_saves;
      }
      ed.wire->exchanges().clear();
    }
  }

  std::uint64_t wire_bytes() const {
    double n = 0;
    for (const auto& ed : editors_) {
      const Counters c = editor_counters(*ed);
      n += c.at("wire.up_bytes") + c.at("wire.down_bytes");
    }
    return std::uint64_t(n);
  }

  /// Work counts of one editor's layers: the writer's mediator and
  /// channel plus what its cold-open devices accumulated.
  Counters editor_counters(const Editor& ed) const {
    Counters c = ed.counters;
    c["wire.up_bytes"] += double(ed.wire->up_bytes());
    c["wire.down_bytes"] += double(ed.wire->down_bytes());
    const auto& mc = ed.mediator->counters();
    c["extension.journal_appends"] += double(mc.journal_appends);
    c["extension.audit_links"] += double(mc.audit_links_committed);
    c["extension.audit_chain_retries"] += double(mc.audit_chain_retries);
    c["extension.witnesses_published"] += double(mc.witnesses_published);
    if (const auto* tcp = dynamic_cast<const net::TcpChannel*>(ed.upstream.get())) {
      c["net.attempts"] += double(tcp->counters().attempts);
      c["net.retries"] += double(tcp->counters().retries);
    }
    return c;
  }

  /// Runs `fn` for every editor: one thread each when `concurrent` and
  /// there are several, else one editor after another.
  template <typename Fn>
  void each_editor(bool concurrent, Fn fn) {
    const auto guarded = [&fn](Editor& ed) {
      try {
        fn(ed);
      } catch (const std::exception& e) {
        // Thread entry: record, never let it escape.
        ed.result.fail(std::string("editor loop: ") + e.what());
      }
    };
    if (!concurrent || editors_.size() == 1) {
      for (const auto& ed : editors_) guarded(*ed);
      return;
    }
    std::vector<std::thread> threads;
    threads.reserve(editors_.size());
    for (const auto& ed : editors_) {
      threads.emplace_back([&guarded, ed = ed.get()] { guarded(*ed); });
    }
    for (std::thread& t : threads) t.join();
  }

  /// The timed window: `budget` ops of the workload's own mix.
  void window(Editor& ed, std::size_t budget) {
    ed.in_window = true;
    if (spec_.autosave) {
      for (std::size_t cycle = 0; cycle * 2 < budget; ++cycle) {
        autosave_cycle(ed, ed.docs[cycle % ed.docs.size()],
                       cycle * 2 + 1 < budget);
      }
    } else {
      for (std::size_t k = 0; k < budget; ++k) {
        keystroke(ed, ed.docs[k % ed.docs.size()]);
      }
    }
    ed.in_window = false;
  }

  /// After the window: the op kinds the window lacks, so their latency
  /// metrics have samples on this workload too.
  void side_phase(Editor& ed) {
    for (std::size_t k = 0; k < spec_.side_ops; ++k) {
      DocState& d = ed.docs[k % ed.docs.size()];
      if (spec_.autosave) {
        keystroke(ed, d);
      } else {
        autosave_cycle(ed, d, /*open=*/true);
      }
    }
  }

  void autosave_cycle(Editor& ed, DocState& d, bool open) {
    for (std::size_t k = 0; k < kEditsPerSave; ++k) next_edit(d);
    full_save(ed, d);
    if (open) cold_open(ed, d);
  }

  /// The generator's next keystroke on `d`, skipping cursor jumps (which
  /// change nothing and would send nothing).
  static delta::Delta next_edit(DocState& d) {
    delta::Delta pdelta = d.typing->keystroke();
    while (pdelta.empty()) pdelta = d.typing->keystroke();
    return pdelta;
  }

  /// Times one request through `channel`. Returns the response, or
  /// nullopt (counted as failed) on a non-2xx status or an exception.
  std::optional<net::HttpResponse> timed(Editor& ed, OpKind kind,
                                         net::Channel& channel,
                                         const net::HttpRequest& request) {
    // Only window ops are root spans fold_spans counts ("op." prefix).
    static constexpr const char* kWindow[] = {"op.keystroke", "op.save",
                                              "op.open"};
    static constexpr const char* kSide[] = {"side.keystroke", "side.save",
                                            "side.open"};
    ++ed.result.attempted;
    if (traced_) {
      ed.backlog_max = std::max(ed.backlog_max, double(stack_->backlog()));
    }
    std::optional<net::HttpResponse> resp;
    std::string error;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    {
      ScopedSpan span(
          tracer_, (ed.in_window ? kWindow : kSide)[static_cast<int>(kind)], 0);
      t0 = now_ns();
      try {
        resp = channel.round_trip(request);
      } catch (const std::exception& e) {
        error = e.what();
      }
      t1 = now_ns();
    }
    if (!resp || !resp->ok()) {
      ++ed.result.failed;
      ed.result.fail(resp ? "op answered HTTP " + std::to_string(resp->status)
                          : "op raised: " + error);
      return std::nullopt;
    }
    const double ms = double(t1 - t0) / 1e6;
    ed.op_ms[kind].push_back(ms);
    if (ed.in_window) {
      ++ed.window_ops[kind];
      ed.window_op_ms += ms;
    }
    return resp;
  }

  bool probe_due(Editor& ed, OpKind kind) {
    return traced_ && ed.probe_clock[kind]++ % spec_.probe_every == 0;
  }

  void count_achain(Editor& ed, MeteredChannel& wire) {
    for (const Exchange& x : wire.exchanges()) {
      ed.counters["wire.achain_bytes"] +=
          double(FormData::parse(x.response_body).get("achain").value_or("").size());
    }
  }

  void keystroke(Editor& ed, DocState& d) {
    const std::string pwire = next_edit(d).to_wire();
    FormData form;
    form.add("session", d.session);
    form.add("rev", std::to_string(d.rev));
    form.add("delta", pwire);
    const net::HttpRequest request =
        net::HttpRequest::post_form(d.target, form.encode());
    const bool probe = probe_due(ed, OpKind::kKeystroke);
    std::string pre;
    if (probe) pre = *ed.mediator->managed_ciphertext(d.id);
    ed.wire->exchanges().clear();
    const auto resp = timed(ed, OpKind::kKeystroke, *ed.mediator, request);
    if (!resp) return;
    d.rev = form_u64(resp->body, "rev");
    ++d.acked_saves;
    if (!traced_) return;
    count_achain(ed, *ed.wire);
    if (probe) {
      ed.prober->keystroke(d.id, pre, *ed.mediator->managed_ciphertext(d.id),
                           *ed.mediator->managed_plaintext(d.id), pwire,
                           ed.wire->exchanges().front());
    }
  }

  void full_save(Editor& ed, DocState& d) {
    FormData form;
    form.add("session", d.session);
    form.add("rev", std::to_string(d.rev));
    form.add("docContents", d.typing->document());
    const net::HttpRequest request =
        net::HttpRequest::post_form(d.target, form.encode());
    const bool probe = probe_due(ed, OpKind::kSave);
    std::string pre;
    if (probe) pre = *ed.mediator->managed_ciphertext(d.id);
    ed.wire->exchanges().clear();
    const auto resp = timed(ed, OpKind::kSave, *ed.mediator, request);
    if (!resp) return;
    d.rev = form_u64(resp->body, "rev");
    ++d.acked_saves;
    if (!traced_) return;
    count_achain(ed, *ed.wire);
    if (probe) {
      ed.prober->save(d.id, pre, d.typing->document(),
                      ed.wire->exchanges().front());
    }
  }

  void cold_open(Editor& ed, DocState& d) {
    // A fresh mediator on the second device: nothing in memory, its own
    // client id, and the device's journal directory from earlier opens.
    const std::unique_ptr<net::Channel> upstream = stack_->channel();
    MeteredChannel wire(upstream.get(), &tracer_);
    extension::GDocsMediator device(
        &wire, mediator_config(ed.client_id + "-device", ed.device_dir,
                               mix(options_.seed,
                                   mix(round_, 1'000'000 + ed.index * 100'000 +
                                                   ed.opens++))));
    const auto resp =
        timed(ed, OpKind::kOpen, device,
              net::HttpRequest::post_form(d.target, "cmd=open"));
    ed.counters["wire.up_bytes"] += double(wire.up_bytes());
    ed.counters["wire.down_bytes"] += double(wire.down_bytes());
    if (const auto* tcp = dynamic_cast<const net::TcpChannel*>(upstream.get())) {
      ed.counters["net.attempts"] += double(tcp->counters().attempts);
      ed.counters["net.retries"] += double(tcp->counters().retries);
    }
    const auto& dc = device.counters();
    ed.counters["extension.journal_appends"] += double(dc.journal_appends);
    ed.counters["extension.audit_links"] += double(dc.audit_links_committed);
    ed.counters["extension.audit_chain_retries"] += double(dc.audit_chain_retries);
    ed.counters["extension.witnesses_published"] += double(dc.witnesses_published);
    if (!resp) return;
    if (FormData::parse(resp->body).get("content") != d.typing->document()) {
      ed.result.fail("cold open of " + d.id + " did not return the latest text");
    }
    if (!traced_) return;
    count_achain(ed, wire);
    const Exchange& exchange = wire.exchanges().front();
    if (probe_due(ed, OpKind::kOpen)) {
      ed.prober->open(d.id, d.typing->document(), exchange, d.tip);
    }
    d.tip = served_tip(exchange);
  }

  void verify(PassResult& out) {
    for (const auto& owned : editors_) {
      Editor& ed = *owned;
      std::uint64_t acked = 0;
      for (DocState& d : ed.docs) {
        acked += d.acked_saves;
        const auto stored = stack_->stored(d.id);
        if (!stored || stored != ed.mediator->managed_ciphertext(d.id)) {
          out.fail(d.id + ": stored container differs from the mediator's");
          continue;
        }
        const extension::DocumentSession session =
            extension::DocumentSession::open(
                kPassword, *stored, extension::seeded_rng_factory(7));
        if (session.plaintext() != d.typing->document()) {
          out.fail(d.id + ": stored text differs from the generator's");
        }
        // Read the live journal through a copy, so the check opens no
        // file the mediator holds.
        const std::string wal =
            ed.journal_dir + "/" + hex_encode(as_bytes(d.id)) + ".wal";
        const std::string copy = dir_ + "/check-" + d.id + ".wal";
        fs::copy_file(wal, copy, fs::copy_options::overwrite_existing);
        const extension::EditJournal journal(copy);
        if (!journal.pending().empty()) {
          out.fail(d.id + ": journal entry still pending after the last ack");
        }
        if (!journal.last_acked() ||
            journal.last_acked()->checksum != content_hash16(*stored)) {
          out.fail(d.id + ": journal checksum differs from the stored container");
        }
      }
      const auto& mc = ed.mediator->counters();
      if (mc.audit_links_committed != acked) {
        out.fail(ed.client_id + ": " + std::to_string(mc.audit_links_committed) +
                 " audit links committed for " + std::to_string(acked) +
                 " acknowledged saves");
      }
      if (mc.ack_checksum_mismatches != 0) {
        out.fail(ed.client_id + ": ack checksum mismatches");
      }
    }
  }

  static void merge(PassResult& into, const PassResult& from) {
    into.attempted += from.attempted;
    into.failed += from.failed;
    for (const auto& f : from.check_failures) into.check_failures.push_back(f);
    for (const auto& [name, v] : from.probe_ms) {
      auto& dst = into.probe_ms[name];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    for (const auto& [kind, probes] : from.probe_ms_by_op) {
      for (const auto& [name, v] : probes) {
        auto& dst = into.probe_ms_by_op[kind][name];
        dst.insert(dst.end(), v.begin(), v.end());
      }
    }
  }

  const WorkloadSpec& spec_;
  const Options& options_;
  const bool traced_;
  const std::size_t round_;
  Tracer& tracer_;
  const std::string dir_;
  std::unique_ptr<Stack> stack_;
  // Declared after stack_ so the mediators go before the server does.
  std::vector<std::unique_ptr<Editor>> editors_;
};

/// Folds the traced spans into per-layer self times. Only spans whose
/// root is an editor op count; setup traffic is not an op.
void fold_spans(const std::vector<Span>& spans, PassResult& out) {
  const std::map<std::uint64_t, double> self = self_ms(spans);
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  const auto root_of = [&](const Span& s) -> const Span* {
    const Span* cur = &s;
    while (cur->parent != 0) {
      const auto it = by_id.find(cur->parent);
      if (it == by_id.end()) return nullptr;
      cur = it->second;
    }
    return cur;
  };
  static const std::map<std::string, std::string> kSelfName = {
      {"net.upstream", "net.self_ms"},
      {"cloud.handle", "cloud.self_ms"},
      {"cloud.store_put", "cloud.store_put_ms"},
      {"cloud.audit_put", "cloud.audit_put_ms"},
      {"trace.copy", "trace.copy_ms"}};
  double self_total = 0;
  for (const Span& s : spans) {
    const Span* root = root_of(s);
    if (root == nullptr || std::string_view(root->name).rfind("op.", 0) != 0) {
      continue;
    }
    const double dur = double(s.end_ns - s.start_ns) / 1e6;
    const double own = self.at(s.id);
    self_total += own;
    const std::string name = s.name;
    if (&s == root) {
      out.op_ms_total += dur;
      out.layer_ms["extension.self_ms"] += own;
    } else {
      out.layer_ms[kSelfName.at(name)] += own;
      if (name == "net.upstream") out.layer_ms["net.upstream_ms"] += dur;
      if (name == "cloud.handle") out.layer_ms["cloud.handle_ms"] += dur;
    }
  }
  out.span_gap_ms = out.op_ms_total - self_total;
}

}  // namespace

PassResult run_pass(const Options& options, bool traced) {
  const WorkloadSpec& spec = spec_for(options.workload);
  PassResult out;
  Tracer tracer(traced);
  for (std::size_t r = 0; r < spec.rounds; ++r) {
    Round(spec, options, traced, r, tracer).run(out);
  }
  if (traced) fold_spans(tracer.spans(), out);
  return out;
}

}  // namespace perfbench
