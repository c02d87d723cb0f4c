#include "privedit/sim/harness.hpp"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/cloud/shard_router.hpp"
#include "privedit/cloud/store_check.hpp"
#include "privedit/delta/delta.hpp"
#include "privedit/enc/audit_record.hpp"
#include "privedit/enc/container.hpp"
#include "privedit/extension/audit.hpp"
#include "privedit/extension/fsck.hpp"
#include "privedit/extension/mediator.hpp"
#include "privedit/extension/session.hpp"
#include "privedit/net/fault.hpp"
#include "privedit/net/retry.hpp"
#include "privedit/net/socket.hpp"
#include "privedit/net/transport.hpp"
#include "privedit/sim/gen.hpp"
#include "privedit/util/crashpoint.hpp"
#include "privedit/util/crc32.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/hex.hpp"
#include "privedit/util/random.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::sim {
namespace {

constexpr const char* kDocId = "simdoc";
constexpr const char* kTarget = "/Doc?docID=simdoc";

/// Crash seams reachable from a single edit. journal.compact.* fires during
/// *recovery* opens, so arming it here would crash the recovery itself;
/// the recovery_test crash-matrix covers those seams directly.
constexpr const char* kJournalSeams[] = {
    "journal.append.before_write",
    "journal.append.torn",
    "journal.append.before_fsync",
};
constexpr const char* kStoreSeams[] = {
    "file_store.put.created",     "file_store.put.torn",
    "file_store.put.before_fsync", "file_store.put.before_rename",
    "file_store.put.before_dirsync",
};
constexpr const char* kAuditSeams[] = {
    "audit.append.before_write",
    "audit.append.torn",
    "audit.append.before_fsync",
};

std::uint64_t parse_rev_field(const std::optional<std::string>& field) {
  if (!field) return 0;
  std::uint64_t value = 0;
  for (char c : *field) {
    if (c < '0' || c > '9') return 0;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

/// Alphabet-preserving ciphertext flip: substituting within the Base32
/// alphabet keeps the container decodable so the corruption reaches the
/// *cryptographic* integrity check rather than dying in the codec. Chars
/// outside the alphabet (the codec tag) get a plain byte change, which
/// exercises the framing validator instead.
char flip_char(char c, std::uint32_t salt) {
  static constexpr std::string_view kB32 = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567";
  const std::size_t at = kB32.find(c);
  if (at == std::string_view::npos) {
    return c == '3' ? '6' : '3';  // codec tag (or stray byte): break framing
  }
  return kB32[(at + 1 + salt % 31) % kB32.size()];
}

struct Splice {
  std::size_t pos = 0;
  std::size_t del = 0;
  std::string text;
};

class Runner {
 public:
  Runner(const SimConfig& config, const Script& script)
      : cfg_(config), script_(script) {}

  SimReport run() {
    rep_.config_wire = cfg_.to_wire();
    try {
      prepare_dirs();
      build_world();
      setup_document();
    } catch (const std::exception& e) {
      fail("setup", e.what());
    }
    for (std::size_t i = 0; i < script_.ops.size() && rep_.ok; ++i) {
      current_op_ = i;
      // Each op costs wall time; without this the zero-latency loopback
      // never lets an outage window or breaker cool-down elapse.
      if (cfg_.op_interval_us > 0) clock_.advance_us(cfg_.op_interval_us);
      try {
        exec_op(script_.ops[i]);
      } catch (const Error& e) {
        fail("unexpected-error", e.what());
      } catch (const std::exception& e) {
        fail("unexpected-exception", e.what());
      }
      if (rep_.ok) {
        ++rep_.cov.ops_executed;
        if (cfg_.deep_verify_every > 0 &&
            (i + 1) % cfg_.deep_verify_every == 0 && !offline_now()) {
          // While offline the server is *expected* to be stale; the drain
          // below re-runs the deep check once the queue has flushed.
          deep_verify();
        }
      }
    }
    if (rep_.ok && cfg_.offline) drain_offline();
    if (rep_.ok && cfg_.deep_verify_every > 0) deep_verify();
    if (rep_.ok && cfg_.audit) audit_quiesce_check();
    if (rep_.ok && cfg_.persist && !sharded()) store_quiesce_check();
    if (rep_.ok && sharded()) shard_equiv_check("quiesce");
    if (rep_.ok && cfg_.delta_saves) delta_quiesce_check();
    if (rep_.ok) container_quiesce_check();
    collect_resilience_cov();
    rep_.final_doc_chars = model_.size();
    rep_.final_rev = rev_;
    if (!rep_.ok) {
      rep_.script_wire = script_.to_wire();
      rep_.repro = "PRIVEDIT_SIM_CONFIG='" + rep_.config_wire +
                   "' PRIVEDIT_SIM_SCRIPT='" + rep_.script_wire +
                   "' ./build/tests/sim_test --gtest_filter='SimRepro.*'";
    }
    return rep_;
  }

 private:
  // ----- world construction -----

  bool sharded() const { return cfg_.shards > 1; }

  void prepare_dirs() {
    if (sharded() && !cfg_.persist) {
      throw Error(ErrorCode::kInvalidArgument,
                  "sim: shards>1 needs persist=1 (shard crashes rebuild "
                  "from the per-shard store)");
    }
    if (!cfg_.journal && !cfg_.persist) return;
    if (cfg_.work_dir.empty()) {
      throw Error(ErrorCode::kInvalidArgument,
                  "sim: journal/persist need config.work_dir");
    }
    namespace fs = std::filesystem;
    if (cfg_.journal) fs::create_directories(fs::path(cfg_.work_dir) / "journal");
    if (cfg_.persist && !sharded()) {
      fs::create_directories(fs::path(cfg_.work_dir) / "store");
    }
    if (sharded()) fs::create_directories(fs::path(cfg_.work_dir) / "shards");
  }

  bool faults_armed() const {
    const net::FaultSpec& f = cfg_.faults;
    return f.drop > 0 || f.truncate_request > 0 || f.truncate_response > 0 ||
           f.garble_response > 0 || f.delay > 0 || !cfg_.outages.empty();
  }

  /// (Re)builds the whole stack. `epoch_` keeps rebuild RNG streams
  /// deterministic yet distinct from the pre-crash instance's.
  void build_world() {
    namespace fs = std::filesystem;
    // A rebuild discards the mediator and with it this epoch's counters;
    // bank the audit tallies first so quiesce sees the whole run.
    if (mediator_ != nullptr) {
      const auto& mc = mediator_->counters();
      audit_links_acc_ += mc.audit_links_committed;
      audit_retries_acc_ += mc.audit_chain_retries;
      witnesses_acc_ += mc.witnesses_published;
    }
    mediator_.reset();
    retry_.reset();
    faulty_.reset();
    loop_.reset();
    server_.reset();
    router_.reset();

    net::Handler handler;
    if (sharded()) {
      // N independent shards behind a consistent-hash router. The router
      // ctor doubles as crash recovery: on an epoch rebuild it reloads the
      // persisted membership and reconciles stray/duplicate documents.
      std::vector<std::string> ids;
      for (std::size_t s = 0; s < cfg_.shards; ++s) {
        ids.push_back("s" + std::to_string(s));
      }
      cloud::ShardRouterConfig rc;
      rc.data_dir = (fs::path(cfg_.work_dir) / "shards").string();
      rc.strict_revisions = cfg_.strict;
      rc.history_limit = cfg_.history_limit;
      router_ = std::make_unique<cloud::ShardRouter>(std::move(ids), rc);
      handler = [rt = router_.get()](const net::HttpRequest& r) {
        return rt->handle(r);
      };
    } else {
      server_ = std::make_unique<cloud::GDocsServer>();
      server_->set_history_limit(cfg_.history_limit);
      server_->set_strict_revisions(cfg_.strict);
      if (cfg_.persist) {
        server_->enable_persistence(
            (fs::path(cfg_.work_dir) / "store").string());
      }
      handler = [srv = server_.get()](const net::HttpRequest& r) {
        return srv->handle(r);
      };
    }

    net::LatencyModel latency;
    latency.base_us = 0;
    latency.jitter_us = 0;
    latency.bytes_per_ms_up = 0;
    latency.bytes_per_ms_down = 0;
    latency.server_us_per_kb = 0;
    loop_ = std::make_unique<net::LoopbackTransport>(
        std::move(handler), &clock_, latency,
        std::make_unique<Xoshiro256>(cfg_.seed ^ 0x100bacc0ULL));

    net::Channel* upstream = loop_.get();
    if (faults_armed()) {
      faulty_ = std::make_unique<net::FaultyChannel>(
          upstream, cfg_.faults,
          std::make_unique<Xoshiro256>(cfg_.seed * 0x9e3779b97f4a7c15ULL +
                                       0xfa01 + epoch_),
          &clock_);
      if (!cfg_.outages.empty()) faulty_->set_outages(cfg_.outages);
      upstream = faulty_.get();
    }
    if (cfg_.retry) {
      net::RetryPolicy policy;
      policy.max_attempts = 12;
      policy.base_backoff_us = 100;
      policy.max_backoff_us = 5'000;
      retry_ = std::make_unique<net::RetryChannel>(
          upstream, policy,
          std::make_unique<Xoshiro256>(cfg_.seed * 0x2545f4914f6cdd1dULL +
                                       3 * epoch_ + 5),
          &clock_);
      upstream = retry_.get();
    }

    extension::MediatorConfig mc;
    mc.password = cfg_.password;
    mc.scheme.mode = cfg_.mode;
    mc.scheme.block_chars = cfg_.block_chars;
    mc.scheme.kdf_iterations = cfg_.kdf_iterations;
    mc.rng_factory = extension::seeded_rng_factory(
        cfg_.seed * 6364136223846793005ULL + 1442695040888963407ULL * (epoch_ + 1));
    if (cfg_.journal) {
      mc.journal_dir = (fs::path(cfg_.work_dir) / "journal").string();
    }
    mc.delta_full_saves = cfg_.delta_saves;
    if (cfg_.audit) {
      mc.audit = true;
      mc.client_id = "A";  // client B is driven by the harness directly
    }
    if (cfg_.offline) {
      mc.offline.enabled = true;
      if (cfg_.op_interval_us > 0) {
        // Scale the breaker cool-down to the op cadence so probes (and thus
        // mid-run recovery, not just the end-of-run drain) happen during
        // the scripted flap schedule.
        mc.offline.breaker.cooldown_us = 20 * cfg_.op_interval_us;
      }
    }
    mediator_ = std::make_unique<extension::GDocsMediator>(upstream, std::move(mc),
                                                           &clock_);
  }

  // ----- document lifecycle -----

  net::HttpResponse post(std::string form_body) {
    return mediator_->round_trip(
        net::HttpRequest::post_form(kTarget, std::move(form_body)));
  }

  net::HttpResponse open_request() {
    FormData f;
    f.add("cmd", "open");
    return post(f.encode());
  }

  void setup_document() {
    // cmd=create is idempotent end to end (server wipes the doc, mediator
    // resets session + journal), so under faults it can simply be retried.
    for (int attempt = 0;; ++attempt) {
      try {
        FormData f;
        f.add("cmd", "create");
        const net::HttpResponse resp = post(f.encode());
        if (!resp.ok()) {
          fail("setup", "create rejected: " + std::to_string(resp.status));
          return;
        }
        rev_ = parse_rev_field(FormData::parse(resp.body).get("rev"));
        break;
      } catch (const net::TransportError&) {
        ++rep_.cov.transport_errors;
        if (attempt >= 64) {
          fail("setup", "create: transport faults exhausted retries");
          return;
        }
      }
    }
    model_.clear();
    if (cfg_.initial_chars > 0) {
      std::string text =
          op_text(TextClass::kWords, static_cast<std::uint32_t>(cfg_.seed),
                  static_cast<std::uint32_t>(cfg_.initial_chars / 6 + 1));
      if (text.size() > cfg_.initial_chars) text.resize(cfg_.initial_chars);
      exec_full_save(std::move(text));
    }
    if (sharded() && rep_.ok) setup_fixtures();
  }

  // ----- sharded topology -----

  /// The GDocsServer currently authoritative for the mediated document —
  /// the single server in classic runs, the owning shard in sharded runs.
  /// Adversary levers (push_sync, set_raw_content) go through here so they
  /// hit stored state directly, exactly like the classic topology.
  cloud::GDocsServer& authority() {
    if (router_ != nullptr) {
      return router_->shard_server(router_->shard_for(kDocId));
    }
    return *server_;
  }

  std::optional<std::string> raw_doc() {
    return router_ != nullptr ? router_->raw_content(kDocId)
                              : server_->raw_content(kDocId);
  }

  /// Unmediated plaintext ballast spread across the ring: shard crash and
  /// rebalance ops need a populated corpus to move, and the equivalence
  /// check needs reference bytes to compare against. Fixtures are created
  /// once (they survive epoch rebuilds through the per-shard stores).
  void setup_fixtures() {
    for (std::size_t i = 0; i < cfg_.fixture_docs; ++i) {
      const std::string doc_id = "fix" + std::to_string(i);
      const std::string text =
          op_text(TextClass::kWords,
                  static_cast<std::uint32_t>(cfg_.seed * 131 + i), 24);
      FormData create;
      create.add("cmd", "create");
      net::HttpResponse resp = router_->handle(net::HttpRequest::post_form(
          "/Doc?docID=" + percent_encode(doc_id), create.encode()));
      if (!resp.ok()) {
        fail("setup", "fixture create: HTTP " + std::to_string(resp.status));
        return;
      }
      FormData save;
      save.add("session", "1");
      save.add("rev", "0");
      save.add("docContents", text);
      resp = router_->handle(net::HttpRequest::post_form(
          "/Doc?docID=" + percent_encode(doc_id), save.encode()));
      if (!resp.ok()) {
        fail("setup", "fixture save: HTTP " + std::to_string(resp.status));
        return;
      }
      fixtures_[doc_id] = text;
    }
  }

  /// The sharded model-equivalence invariant: every document lives on
  /// exactly one shard and its bytes are exactly the reference's. Checked
  /// after every shard crash, after every rebalance leg, and at quiesce.
  void shard_equiv_check(const char* when) {
    if (!rep_.ok || router_ == nullptr) return;
    for (const auto& [doc_id, expected] : fixtures_) {
      const auto owners = router_->holders(doc_id);
      if (owners.size() != 1) {
        fail("shard-equiv",
             std::string(when) + ": fixture " + doc_id + " held by " +
                 std::to_string(owners.size()) + " shards (want exactly 1)");
        return;
      }
      const auto content = router_->raw_content(doc_id);
      if (!content || *content != expected) {
        fail("shard-equiv",
             std::string(when) + ": fixture " + doc_id +
                 " diverged from its reference after migration");
        return;
      }
    }
    const auto owners = router_->holders(kDocId);
    if (owners.size() != 1) {
      fail("shard-equiv",
           std::string(when) + ": mediated doc held by " +
               std::to_string(owners.size()) + " shards (want exactly 1)");
    }
  }

  void exec_shard_crash(const SimOp& op) {
    if (router_ == nullptr) return;
    const auto ids = router_->members();
    const std::string id = ids[op.arg % ids.size()];
    // Kill the shard process (volatile state gone), then restart it from
    // its durable store. Every document it held must come back intact.
    router_->crash_shard(id);
    router_->restart_shard(id);
    ++rep_.cov.shard_crashes;
    shard_equiv_check("shard-crash");
    if (rep_.ok) exec_reopen();  // the mediated doc must still open clean
  }

  void exec_shard_rebalance(const SimOp& op) {
    if (router_ == nullptr) return;
    const auto ids = router_->members();
    if (ids.size() < 2) return;
    const std::string id = ids[op.arg % ids.size()];
    const std::size_t migrated_before = router_->counters().docs_migrated;
    // Drain the shard out of the ring (all its docs migrate to survivors),
    // then join it back (its ring ranges migrate home again). Both legs
    // must preserve exactly-one-owner and byte-identical content.
    router_->remove_shard(id);
    shard_equiv_check("rebalance-out");
    if (!rep_.ok) return;
    router_->add_shard(id);
    shard_equiv_check("rebalance-in");
    if (!rep_.ok) return;
    ++rep_.cov.shard_rebalances;
    rep_.cov.docs_migrated +=
        router_->counters().docs_migrated - migrated_before;
  }

  // ----- op dispatch -----

  void exec_op(const SimOp& op) {
    switch (op.kind) {
      case SimOpKind::kInsert:
      case SimOpKind::kErase:
      case SimOpKind::kReplace:
        exec_edit(op);
        return;
      case SimOpKind::kReplaceAll: {
        std::string text = op_text(op.cls, op.arg, op.len);
        if (text.size() > cfg_.max_doc_chars) text.resize(cfg_.max_doc_chars);
        track_payload(op.cls, text);
        exec_full_save(std::move(text));
        return;
      }
      case SimOpKind::kUndo:
        exec_undo();
        return;
      case SimOpKind::kReopen:
        exec_reopen();
        return;
      case SimOpKind::kTamperFlip:
      case SimOpKind::kTamperSwap:
      case SimOpKind::kTamperDrop:
      case SimOpKind::kTamperDup:
        exec_tamper(op);
        return;
      case SimOpKind::kRollback:
        exec_rollback(op);
        return;
      case SimOpKind::kFork:
        exec_fork(op);
        return;
      case SimOpKind::kCrash:
        exec_crash(op);
        return;
      case SimOpKind::kStoreRot:
        exec_store_rot(op);
        return;
      case SimOpKind::kShardCrash:
        exec_shard_crash(op);
        return;
      case SimOpKind::kShardRebalance:
        exec_shard_rebalance(op);
        return;
      case SimOpKind::kPeerEdit:
        exec_peer_edit(op);
        return;
      case SimOpKind::kEquivocate:
        exec_equivocate(op);
        return;
      case SimOpKind::kWitnessSuppress:
        exec_witness_suppress(op);
        return;
      case SimOpKind::kReplay:
        exec_replay(op);
        return;
    }
  }

  // ----- edits -----

  std::size_t resolve_pos(const SimOp& op) {
    std::size_t pos = static_cast<std::size_t>(
        std::uint64_t{op.pos_ppm} * model_.size() / 1'000'000);
    if (pos > model_.size()) pos = model_.size();
    if (op.snap && cfg_.block_chars > 1) {
      pos -= pos % cfg_.block_chars;
      ++rep_.cov.boundary_snaps;
    }
    return pos;
  }

  void track_payload(TextClass cls, const std::string& text) {
    if (text.empty()) return;
    if (cls == TextClass::kUnicode) ++rep_.cov.unicode_inserts;
    if (cls == TextClass::kSpecial) ++rep_.cov.special_inserts;
  }

  Splice make_splice(const SimOp& op) {
    Splice s;
    s.pos = resolve_pos(op);
    switch (op.kind) {
      case SimOpKind::kInsert:
        s.text = op_text(op.cls, op.arg, op.len);
        ++rep_.cov.inserts;
        break;
      case SimOpKind::kErase:
        s.del = std::min<std::size_t>(op.len, model_.size() - s.pos);
        ++rep_.cov.erases;
        break;
      case SimOpKind::kReplace:
        s.del = std::min<std::size_t>(op.len, model_.size() - s.pos);
        s.text = op_text(op.cls, op.arg, op.len2);
        ++rep_.cov.replaces;
        break;
      default:
        break;
    }
    // Clamp the insert so the document never outgrows the configured cap
    // (the harness targets splice arithmetic, not memory growth).
    const std::size_t base = model_.size() - s.del;
    const std::size_t room = cfg_.max_doc_chars > base
                                 ? cfg_.max_doc_chars - base
                                 : 0;
    if (s.text.size() > room) s.text.resize(room);
    track_payload(op.cls, s.text);
    if (s.del == 0 && s.text.empty()) ++rep_.cov.empty_ops;
    return s;
  }

  delta::Delta splice_delta(const Splice& s) const {
    delta::Delta d;
    if (s.pos > 0) d.push(delta::Op::retain(s.pos));
    std::size_t del = s.del;
    if (cfg_.mutation == Mutation::kDropDelete) del = 0;  // deliberate SUT bug
    if (del > 0) d.push(delta::Op::erase(del));
    if (!s.text.empty()) d.push(delta::Op::insert(s.text));
    if (d.empty()) d.push(delta::Op::retain(0));  // explicit no-op on the wire
    return d;
  }

  /// Sends one delta update. Returns false if the op was absorbed by fault
  /// reconciliation (model already resynced) or the run has failed.
  bool send_splice(const Splice& s, bool push_undo) {
    std::string after = model_;
    after.replace(s.pos, s.del, s.text);
    FormData f;
    f.add("session", "1");
    f.add("rev", std::to_string(rev_));
    f.add("delta", splice_delta(s).to_wire());
    net::HttpResponse resp;
    try {
      resp = post(f.encode());
    } catch (const net::TransportError&) {
      ++rep_.cov.transport_errors;
      reconcile(model_, after);
      return false;
    }
    if (resp.status == 503 && cfg_.offline) {
      // Offline-queue backpressure: the mediator refused the edit *before*
      // touching the mirror, so the reference simply drops it too.
      return false;
    }
    if (!resp.ok()) {
      fail("save-rejected", "delta save: HTTP " + std::to_string(resp.status) +
                                " " + resp.body);
      return false;
    }
    if (push_undo) {
      undo_.push_back(
          Splice{s.pos, s.text.size(), model_.substr(s.pos, s.del)});
      if (undo_.size() > 64) undo_.pop_front();
    }
    model_ = std::move(after);
    rev_ = parse_rev_field(FormData::parse(resp.body).get("rev"));
    note_snapshot();
    check_model();
    return true;
  }

  void exec_edit(const SimOp& op) {
    const Splice s = make_splice(op);
    if (cfg_.delta_saves && op.arg % 2 == 0) {
      // bd=1 runs route half the splices through the docContents path —
      // "autosave ships the whole document after a small edit", the traffic
      // shape differential saves exist to compress. The other half stays
      // on the delta path so both wire forms interleave against the same
      // container anchor.
      std::string after = model_;
      after.replace(s.pos, s.del, s.text);
      exec_full_save(std::move(after));
      return;
    }
    send_splice(s, true);
  }

  void exec_full_save(std::string text) {
    ++rep_.cov.full_saves;
    FormData f;
    f.add("session", "1");
    f.add("rev", std::to_string(rev_));
    f.add("docContents", text);
    net::HttpResponse resp;
    try {
      resp = post(f.encode());
    } catch (const net::TransportError&) {
      ++rep_.cov.transport_errors;
      reconcile(model_, text);
      return;
    }
    if (resp.status == 503 && cfg_.offline) {
      return;  // offline-queue backpressure: edit dropped on both sides
    }
    if (!resp.ok()) {
      fail("save-rejected", "full save: HTTP " + std::to_string(resp.status));
      return;
    }
    undo_.push_back(Splice{0, text.size(), model_});
    if (undo_.size() > 64) undo_.pop_front();
    model_ = std::move(text);
    rev_ = parse_rev_field(FormData::parse(resp.body).get("rev"));
    note_snapshot();
    check_model();
  }

  void exec_undo() {
    if (undo_.empty()) return;
    const Splice inverse = undo_.back();
    undo_.pop_back();
    if (send_splice(inverse, false)) ++rep_.cov.undos;
  }

  void exec_reopen() {
    net::HttpResponse resp;
    try {
      resp = open_request();
    } catch (const net::TransportError&) {
      ++rep_.cov.transport_errors;
      if (cfg_.offline) {
        // The document was not offline yet (or has no session), so the
        // open hit the wire and died. Keep the local view; the next save
        // flips the document offline and edits keep flowing.
        return;
      }
      reconcile(model_, model_);
      return;
    }
    if (!resp.ok()) {
      fail("reopen-rejected", "open: HTTP " + std::to_string(resp.status));
      return;
    }
    const FormData reply = FormData::parse(resp.body);
    const std::string content = reply.get("content").value_or("");
    if (content != model_) {
      fail("reopen-mismatch",
           "decrypted open returned " + std::to_string(content.size()) +
               " bytes, reference has " + std::to_string(model_.size()));
      return;
    }
    rev_ = parse_rev_field(reply.get("rev"));
    ++rep_.cov.reopens;
    check_model();
  }

  // ----- invariants -----

  void check_model() {
    if (!rep_.ok) return;
    const auto mirror = mediator_->managed_plaintext(kDocId);
    if (!mirror) {
      fail("model-equiv", "mediator holds no mirror for the document");
      return;
    }
    if (*mirror != model_) {
      std::size_t at = 0;
      while (at < mirror->size() && at < model_.size() &&
             (*mirror)[at] == model_[at]) {
        ++at;
      }
      fail("model-equiv",
           "mirror (" + std::to_string(mirror->size()) +
               " bytes) diverges from reference (" +
               std::to_string(model_.size()) + " bytes) at byte " +
               std::to_string(at));
    }
  }

  void deep_verify() {
    if (!rep_.ok) return;
    const auto raw = raw_doc();
    if (!raw) {
      fail("deep-equiv", "server lost the document");
      return;
    }
    try {
      extension::DocumentSession session = extension::DocumentSession::open(
          cfg_.password, *raw,
          extension::seeded_rng_factory(cfg_.seed ^ 0xdee9ULL));
      if (session.plaintext() != model_) {
        fail("deep-equiv",
             "independent decrypt of the stored ciphertext (" +
                 std::to_string(session.plaintext().size()) +
                 " bytes) != reference (" + std::to_string(model_.size()) +
                 " bytes)");
        return;
      }
    } catch (const Error& e) {
      fail("deep-equiv", std::string("stored ciphertext failed to open: ") +
                             e.what());
      return;
    }
    // The provider must never see plaintext: generated payloads are
    // lowercase/multi-byte/punctuation, the Base32 body is uppercase, so
    // any 16-byte plaintext window appearing verbatim is a leak.
    if (model_.size() >= 16 &&
        raw->find(model_.substr(0, 16)) != std::string::npos) {
      fail("plaintext-leak", "stored document contains reference plaintext");
      return;
    }
    ++rep_.cov.deep_verifies;
  }

  bool offline_now() const {
    return cfg_.offline && mediator_ != nullptr &&
           mediator_->offline_active(kDocId);
  }

  /// End-of-run drain (offline runs): the outage schedule is finite, so
  /// advancing the clock and probing must eventually flush the composed
  /// update — then the server must hold exactly the reference (zero lost,
  /// zero duplicated edits after heal).
  void drain_offline() {
    if (mediator_ == nullptr || !mediator_->offline_active(kDocId)) return;
    const std::uint64_t step = std::max<std::uint64_t>(cfg_.op_interval_us,
                                                       1'000);
    for (int i = 0; i < 10'000 && mediator_->offline_active(kDocId); ++i) {
      clock_.advance_us(step);
      mediator_->try_flush(kDocId);
    }
    if (mediator_->offline_active(kDocId)) {
      fail("offline-drain",
           "offline queue failed to flush after the outage schedule ended");
      return;
    }
    net::HttpResponse resp;
    try {
      resp = open_request();
    } catch (const Error& e) {
      fail("offline-drain", std::string("open after drain threw: ") + e.what());
      return;
    }
    if (!resp.ok()) {
      fail("offline-drain",
           "open after drain: HTTP " + std::to_string(resp.status));
      return;
    }
    const FormData reply = FormData::parse(resp.body);
    const std::string content = reply.get("content").value_or("");
    if (content != model_) {
      fail("offline-convergence",
           "post-heal document (" + std::to_string(content.size()) +
               " bytes) != reference (" + std::to_string(model_.size()) +
               " bytes): edits were lost or duplicated across the outage");
      return;
    }
    rev_ = parse_rev_field(reply.get("rev"));
    check_model();
  }

  /// End-of-run invariant for bd=1 runs: after quiesce the server's raw
  /// container must be byte-identical to the mediator's ciphertext mirror.
  /// Differential saves only work because the mirror tracks the server
  /// exactly — any drift here means a delta was applied against bytes the
  /// client no longer agrees with.
  void delta_quiesce_check() {
    if (offline_now()) return;  // server legitimately stale while offline
    const auto raw = raw_doc();
    const auto mirror = mediator_->managed_ciphertext(kDocId);
    if (!raw || !mirror) {
      fail("delta-quiesce", "server or mediator lost the container");
      return;
    }
    if (*raw != *mirror) {
      std::size_t at = 0;
      while (at < raw->size() && at < mirror->size() &&
             (*raw)[at] == (*mirror)[at]) {
        ++at;
      }
      fail("delta-quiesce",
           "stored container (" + std::to_string(raw->size()) +
               " bytes) != mediator ciphertext mirror (" +
               std::to_string(mirror->size()) + " bytes) at byte " +
               std::to_string(at) + " after differential saves");
    }
  }

  /// End-of-run invariant for every run: the session's cached container —
  /// what every journal checksum, audit link and delta anchor was computed
  /// over — is byte-equal to a fresh serialisation of its scheme, after
  /// whatever the adversary, crash and offline phases did to the session.
  void container_quiesce_check() {
    if (mediator_ == nullptr) return;
    const extension::DocumentSession* session = mediator_->session(kDocId);
    if (session == nullptr) return;
    const std::string& cached = session->container();
    if (cached != session->scheme().ciphertext_doc()) {
      fail("container-quiesce", "session container (" +
                                    std::to_string(cached.size()) +
                                    " bytes) != its scheme's serialisation");
    }
  }

  void collect_resilience_cov() {
    if (mediator_ == nullptr) return;
    const auto& mc = mediator_->counters();
    rep_.cov.delta_full_saves = mc.delta_full_saves;
    rep_.cov.delta_full_save_fallbacks = mc.delta_full_save_fallbacks;
    rep_.cov.delta_full_save_bytes = mc.delta_full_save_bytes;
    rep_.cov.full_save_bytes = mc.full_save_bytes;
    rep_.cov.offline_entered = mc.offline_entered;
    rep_.cov.offline_acks = mc.offline_acks;
    rep_.cov.offline_flushes = mc.offline_flushes;
    rep_.cov.offline_rebases = mc.offline_rebases;
    rep_.cov.offline_dedupes = mc.offline_dedupes;
    rep_.cov.offline_backpressure = mc.offline_backpressure;
    rep_.cov.audit_links_committed =
        audit_links_acc_ + mc.audit_links_committed;
    rep_.cov.audit_chain_retries = audit_retries_acc_ + mc.audit_chain_retries;
    rep_.cov.witnesses_published = witnesses_acc_ + mc.witnesses_published;
    if (mediator_->breaker() != nullptr) {
      rep_.cov.breaker_trips = mediator_->breaker()->counters().trips;
    }
    if (faulty_ != nullptr) {
      rep_.cov.outage_faults = faulty_->counters().outage_faults;
    }
    if (router_ != nullptr) {
      rep_.cov.handoff_rejections = router_->counters().handoff_rejections;
    }
  }

  /// Fault aftermath: re-open until the channel cooperates and adopt
  /// whichever of {before, after} the server settled on. With the journal
  /// on, open replays the pending entry (revision CAS), so `after` wins;
  /// without it, a never-delivered request legitimately leaves `before`.
  void reconcile(const std::string& before, const std::string& after) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      net::HttpResponse resp;
      try {
        resp = open_request();
      } catch (const net::TransportError&) {
        ++rep_.cov.transport_errors;
        continue;
      }
      if (!resp.ok()) {
        fail("reconcile", "open: HTTP " + std::to_string(resp.status));
        return;
      }
      const FormData reply = FormData::parse(resp.body);
      const std::string content = reply.get("content").value_or("");
      if (content != before && content != after) {
        fail("reconcile-divergence",
             "post-fault document (" + std::to_string(content.size()) +
                 " bytes) matches neither the pre-op (" +
                 std::to_string(before.size()) + ") nor post-op (" +
                 std::to_string(after.size()) + ") state");
        return;
      }
      model_ = content;
      rev_ = parse_rev_field(reply.get("rev"));
      undo_.clear();  // inverses were computed against an uncertain lineage
      check_model();
      return;
    }
    fail("reconcile", "transport faults exhausted 64 reopen attempts");
  }

  // ----- adversary -----

  void note_snapshot() {
    if (!cfg_.journal) return;
    const auto raw = raw_doc();
    if (!raw) return;
    Snapshot snap;
    snap.rev = rev_;
    snap.content = *raw;
    if (cfg_.audit) {
      // Audit replays re-serve the *whole* acknowledged tuple: content,
      // revision, chain and witness set — byte-genuine, just stale.
      if (const auto* doc = authority().table().find(kDocId)) {
        snap.achain = doc->audit_chain;
        snap.witnesses = doc->witnesses;
      }
    }
    snapshots_.push_back(std::move(snap));
    if (snapshots_.size() > 32) snapshots_.pop_front();
  }

  std::string mutate_ciphertext(const std::string& good, const SimOp& op) {
    std::string bad = good;
    if (op.kind == SimOpKind::kTamperFlip) {
      if (bad.empty()) return bad;
      const std::size_t at = op.arg % bad.size();
      bad[at] = flip_char(bad[at], op.arg >> 8);
      return bad;
    }
    // Unit-level surgery relies on the container's arithmetic framing:
    // unit u spans encoded chars [P + u*W, P + (u+1)*W).
    enc::ContainerHeader header;
    std::size_t units = 0;
    try {
      enc::ContainerReader reader(good);
      header = reader.header();
      units = reader.unit_count();
    } catch (const Error&) {
      return good;  // not a container (should not happen); skip
    }
    const std::size_t prefix = header.prefix_chars();
    const std::size_t width = header.unit_width();
    if (width == 0 || units == 0) return good;
    const auto span = [&](std::size_t u) { return prefix + u * width; };
    switch (op.kind) {
      case SimOpKind::kTamperSwap: {
        if (units < 2) return good;
        std::size_t i = op.arg % units;
        std::size_t j = op.arg2 % units;
        if (i == j) j = (i + 1) % units;
        if (i > j) std::swap(i, j);
        const std::string a = bad.substr(span(i), width);
        const std::string b = bad.substr(span(j), width);
        bad.replace(span(j), width, a);
        bad.replace(span(i), width, b);
        return bad;
      }
      case SimOpKind::kTamperDrop: {
        bad.erase(span(op.arg % units), width);
        return bad;
      }
      case SimOpKind::kTamperDup: {
        const std::size_t u = op.arg % units;
        bad.insert(span(u), bad.substr(span(u), width));
        return bad;
      }
      default:
        return good;
    }
  }

  void exec_tamper(const SimOp& op) {
    const auto raw = raw_doc();
    if (!raw || raw->empty()) return;
    const std::string good = *raw;
    const std::string bad = mutate_ciphertext(good, op);
    if (bad == good) return;
    authority().set_raw_content(kDocId, bad);
    ++rep_.cov.tampers_injected;
    bool detected = false;
    try {
      const net::HttpResponse resp = open_request();
      detected = !resp.ok();
    } catch (const IntegrityError&) {
      detected = true;  // includes RollbackError
    } catch (const CryptoError&) {
      detected = true;
    }
    if (detected) {
      ++rep_.cov.tampers_detected;
    } else if (cfg_.mode == enc::Mode::kRpc) {
      fail("tamper-undetected",
           "RPC accepted tampered ciphertext (" + op.to_wire() + ")");
      return;
    }
    heal(good);
  }

  void exec_rollback(const SimOp& op) {
    (void)op;
    if (!cfg_.journal) return;
    const auto raw = raw_doc();
    if (!raw) return;
    const std::string good = *raw;
    const Snapshot* older = nullptr;
    for (const Snapshot& s : snapshots_) {
      if (s.rev < rev_) {
        older = &s;
        break;
      }
    }
    if (older == nullptr) return;  // no strictly older acked state yet
    push_sync(older->rev, older->content);
    ++rep_.cov.rollbacks_injected;
    if (expect_rollback_detected("rollback")) ++rep_.cov.rollbacks_detected;
    heal(good);
  }

  void exec_fork(const SimOp& op) {
    if (!cfg_.journal) return;
    const auto raw = raw_doc();
    if (!raw || raw->empty()) return;
    const std::string good = *raw;
    std::string forked = good;
    const std::size_t at = op.arg % forked.size();
    forked[at] = flip_char(forked[at], op.arg >> 8);
    if (forked == good) return;
    push_sync(rev_, forked);  // same acknowledged revision, different bytes
    ++rep_.cov.forks_injected;
    if (expect_rollback_detected("fork")) ++rep_.cov.forks_detected;
    heal(good);
  }

  /// Adversary lever: a cmd=sync straight at the server (not through the
  /// mediator) adopts content+rev wholesale, exactly what a malicious
  /// replica push can do.
  void push_sync(std::uint64_t rev, const std::string& content,
                 const std::string& achain = {}) {
    FormData f;
    f.add("cmd", "sync");
    f.add("rev", std::to_string(rev));
    f.add("content", content);
    if (!achain.empty()) f.add("achain", achain);
    authority().handle(net::HttpRequest::post_form(kTarget, f.encode()));
  }

  bool expect_rollback_detected(const char* what) {
    try {
      const net::HttpResponse resp = open_request();
      (void)resp;
    } catch (const IntegrityError&) {
      return true;  // RollbackError (or the decrypt noticed first) — good
    } catch (const CryptoError&) {
      return true;
    }
    fail(std::string(what) + "-undetected",
         std::string("journal open accepted a ") + what +
             " of the acknowledged state");
    return false;
  }

  /// Restores the last good stored state and re-syncs the session so the
  /// run continues: sync the bytes back at the acknowledged revision, then
  /// a normal open must succeed and agree with the reference.
  void heal(const std::string& good, const std::string& achain = {}) {
    if (!rep_.ok) return;
    push_sync(rev_, good, achain);
    verify_open_clean("heal");
  }

  /// A post-attack (or quiesce) open that must succeed, agree with the
  /// reference, and re-sync the acknowledged revision.
  void verify_open_clean(const char* what) {
    if (!rep_.ok) return;
    net::HttpResponse resp;
    try {
      resp = open_request();
    } catch (const Error& e) {
      fail(what, std::string("open after restore failed: ") + e.what());
      return;
    }
    if (!resp.ok()) {
      fail(what, "open after restore: HTTP " + std::to_string(resp.status));
      return;
    }
    const FormData reply = FormData::parse(resp.body);
    if (reply.get("content").value_or("") != model_) {
      fail(what, "document changed across an injected-attack round trip");
      return;
    }
    rev_ = parse_rev_field(reply.get("rev"));
    check_model();
  }

  // ----- malicious-server audit adversary (audit=1) -----

  /// Lazily built second client: a memory-only auditor holding the same
  /// password-derived audit key under the id "B". Its edits go straight at
  /// the authoritative server (full-container saves with alink/abase), so
  /// the harness can commit genuine peer history for the adversary to hide.
  extension::DocumentAuditor& peer_auditor() {
    if (!b_auditor_) {
      b_auditor_ = std::make_unique<extension::DocumentAuditor>(
          enc::derive_audit_key(cfg_.password, kDocId), kDocId, "B");
    }
    return *b_auditor_;
  }

  /// One client-B write: open the served container directly, verify the
  /// served chain under B's auditor (trust-on-first-use at first contact),
  /// append a short run of words, save with B's chain link, publish B's
  /// witness. Returns false when the op degenerated to a no-op (no chain
  /// yet, stale view, no room); fails the run on a benign history B cannot
  /// verify. `update_model` false leaves the reference untouched — the
  /// equivocation op wants B's write to be *hidden* state.
  bool peer_edit(std::uint32_t arg, bool update_model) {
    FormData open;
    open.add("cmd", "open");
    open.add("session", "peer");
    net::HttpResponse resp =
        authority().handle(net::HttpRequest::post_form(kTarget, open.encode()));
    if (!resp.ok()) return false;
    const FormData reply = FormData::parse(resp.body);
    const std::string container = reply.get("content").value_or("");
    const std::string achain = reply.get("achain").value_or("");
    const std::uint64_t rev = parse_rev_field(reply.get("rev"));
    if (container.empty() || achain.empty()) return false;

    extension::DocumentSession session = extension::DocumentSession::open(
        cfg_.password, container,
        extension::seeded_rng_factory(cfg_.seed ^ 0xbee5ULL ^ arg));
    if (session.plaintext() != model_) return false;  // mid-attack view; skip

    enc::AuditChain chain;
    try {
      chain = enc::decode_chain(achain);
    } catch (const Error&) {
      fail("peer-audit", "client B served an unparseable chain");
      return false;
    }
    // Chain pruning can move the base past a long-idle B; re-baseline via
    // the same trust-on-first-use path a fresh client would take.
    if (b_auditor_ && b_auditor_->initialized() &&
        chain.base_rev > b_auditor_->committed_rev()) {
      b_auditor_.reset();
    }
    extension::DocumentAuditor& auditor = peer_auditor();
    const std::uint32_t crc = crc32(as_bytes(container));
    if (!auditor.initialized()) {
      if (!enc::verify_chain(auditor.key(), chain) || chain.tip_rev() != rev) {
        fail("peer-audit",
             "client B could not verify a benign chain on first contact");
        return false;
      }
      auditor.adopt(rev, chain.links.empty() ? chain.base_head
                                             : chain.links.back().head);
    } else {
      const auto v = auditor.verify_served(chain, rev, crc);
      if (v.verdict != extension::AuditVerdict::kOk) {
        fail("peer-audit",
             "client B flagged a benign history as " +
                 std::string(extension::audit_verdict_name(v.verdict)) + ": " +
                 v.detail);
        return false;
      }
    }

    std::string text = op_text(TextClass::kWords, arg, 3);
    const std::size_t room = cfg_.max_doc_chars > model_.size()
                                 ? cfg_.max_doc_chars - model_.size()
                                 : 0;
    if (text.size() > room) text.resize(room);
    if (text.empty()) return false;
    delta::Delta pd;
    if (!session.plaintext().empty()) {
      pd.push(delta::Op::retain(session.plaintext().size()));
    }
    pd.push(delta::Op::insert(text));
    (void)session.transform_delta(pd);
    const std::string& next = session.container();
    const enc::AuditLink link =
        auditor.stage_link(auditor.committed_rev() + 1,
                           crc32(as_bytes(next)));

    FormData save;
    save.add("session", reply.get("session").value_or("peer"));
    save.add("rev", std::to_string(rev));
    save.add("docContents", next);
    save.add("alink", enc::encode_link(link));
    save.add("abase", hex_encode(auditor.committed_head()));
    save.add("abaserev", std::to_string(auditor.committed_rev()));
    net::HttpRequest req = net::HttpRequest::post_form(kTarget, save.encode());
    req.headers.set("X-Privedit-Client", "B");
    resp = authority().handle(req);
    if (!resp.ok()) {
      auditor.drop_staged();
      return false;
    }
    // The same 2xx tail check send_update runs before committing.
    const auto v = auditor.verify_ack(FormData::parse(resp.body).get("achain"));
    if (v.verdict != extension::AuditVerdict::kOk) {
      fail("peer-audit", "client B's save ack failed the tail check: " +
                             v.detail);
      return false;
    }
    auditor.commit_staged();

    FormData wf;
    wf.add("cmd", "witness");
    wf.add("w", enc::encode_witness(auditor.own_witness()));
    net::HttpRequest wreq = net::HttpRequest::post_form(kTarget, wf.encode());
    wreq.headers.set("X-Privedit-Client", "B");
    if (authority().handle(wreq).ok()) auditor.note_witness_published();

    if (update_model) model_ = session.plaintext();
    return true;
  }

  /// Benign two-writer traffic (the positive control): B commits a write,
  /// then A reopens — its auditor must fast-forward over B's link without
  /// raising anything.
  void exec_peer_edit(const SimOp& op) {
    if (!cfg_.audit || offline_now()) return;
    if (!peer_edit(op.arg, /*update_model=*/true)) return;
    ++rep_.cov.peer_edits;
    exec_reopen();
  }

  /// The SUNDR attack: the server shows B a history, accepts B's write and
  /// witness, then serves A the pre-B state as if B never wrote — two
  /// divergent histories, one per client. A's open must classify this as
  /// equivocation (B's MACed witness speaks for a revision A's own chain
  /// fills differently). Both lineages are burned afterwards, so the heal
  /// is a re-create.
  void exec_equivocate(const SimOp& op) {
    if (!cfg_.audit || offline_now()) return;
    const auto* doc = authority().table().find(kDocId);
    if (doc == nullptr || doc->content.empty() || doc->audit_chain.empty() ||
        doc->rev != rev_) {
      return;  // only fork a settled, chained state
    }
    const std::string pre_content = doc->content;
    const std::uint64_t pre_rev = doc->rev;
    const std::string pre_chain = doc->audit_chain;

    // B's genuine write + witness land at pre_rev+1 ...
    if (!peer_edit(op.arg, /*update_model=*/false)) return;
    // ... and the server hides it from A: content, rev and chain roll back
    // to the pre-B tuple while B's witness stays in the served set.
    push_sync(pre_rev, pre_content, pre_chain);
    ++rep_.cov.equivocations_injected;
    // B now sits on a hidden lineage; a real B would be the one alarming.
    // Its auditor state is evidence of a burned history — drop it.
    b_auditor_.reset();

    // A extends the served (forked) lineage: its link lands at the same
    // revision B's witness speaks for, with a different head.
    SimOp edit;
    edit.kind = SimOpKind::kInsert;
    edit.pos_ppm = 1'000'000;
    edit.len = op.arg % 4 + 1;
    edit.cls = TextClass::kWords;
    edit.arg = op.arg ^ 0x5eedU;
    send_splice(make_splice(edit), false);
    if (!rep_.ok) return;

    bool detected = false;
    try {
      (void)open_request();
    } catch (const EquivocationError&) {
      detected = true;
    } catch (const Error& e) {
      fail("equivocation-misclassified",
           std::string("open raised the wrong alarm for a fork: ") + e.what());
      return;
    }
    if (!detected) {
      fail("equivocation-undetected",
           "open accepted a forked history (" + op.to_wire() + ")");
      return;
    }
    ++rep_.cov.equivocations_detected;
    recreate_document();
  }

  /// Selective witness suppression: the server drops A's published
  /// chain-head witness from the served set. A open must notice its own
  /// claim vanished (the precondition for hiding A's writes from peers).
  void exec_witness_suppress(const SimOp& op) {
    (void)op;
    if (!cfg_.audit || offline_now()) return;
    auto* doc = authority().table().find(kDocId);
    if (doc == nullptr) return;
    if (doc->witnesses.find("A") == doc->witnesses.end()) {
      // A publishes on open; give it one chance to have a claim out.
      exec_reopen();
      if (!rep_.ok) return;
      doc = authority().table().find(kDocId);
      if (doc == nullptr || doc->witnesses.find("A") == doc->witnesses.end()) {
        return;
      }
    }
    const std::string saved = doc->witnesses.at("A");
    doc->witnesses.erase("A");
    authority().table().persist_audit(kDocId, *doc);
    ++rep_.cov.witness_suppressions_injected;

    bool detected = false;
    try {
      (void)open_request();
    } catch (const EquivocationError&) {
      detected = true;
    } catch (const Error& e) {
      fail("witness-suppression-misclassified",
           std::string("open raised the wrong alarm for a suppressed "
                       "witness: ") +
               e.what());
      return;
    }
    if (!detected) {
      fail("witness-suppression-undetected",
           "open accepted a witness set missing this client's published "
           "claim");
      return;
    }
    ++rep_.cov.witness_suppressions_detected;

    // Heal: the witness reappears; the next open must pass clean.
    doc = authority().table().find(kDocId);
    if (doc != nullptr) {
      doc->witnesses["A"] = saved;
      authority().table().persist_audit(kDocId, *doc);
    }
    verify_open_clean("heal");
  }

  /// Full replay: re-serve an old acknowledged tuple — content, revision,
  /// chain AND witness set, all byte-genuine and MAC-valid, just stale.
  /// The chain alone cannot condemn it (the server stored exactly these
  /// bytes once); the committed head ordering must: A's open classifies it
  /// as rollback.
  void exec_replay(const SimOp& op) {
    (void)op;
    if (!cfg_.audit || offline_now()) return;
    const auto* doc = authority().table().find(kDocId);
    if (doc == nullptr || doc->audit_chain.empty() || doc->rev != rev_) return;
    const std::string good_content = doc->content;
    const std::string good_chain = doc->audit_chain;
    const auto good_witnesses = doc->witnesses;
    const Snapshot* older = nullptr;
    for (const Snapshot& s : snapshots_) {
      if (s.rev < rev_ && !s.achain.empty()) {
        older = &s;
        break;
      }
    }
    if (older == nullptr) return;

    push_sync(older->rev, older->content, older->achain);
    if (auto* d = authority().table().find(kDocId)) {
      d->witnesses = older->witnesses;
      authority().table().persist_audit(kDocId, *d);
    }
    ++rep_.cov.replays_injected;

    bool detected = false;
    try {
      (void)open_request();
    } catch (const RollbackError&) {
      detected = true;
    } catch (const Error& e) {
      fail("replay-misclassified",
           std::string("open raised the wrong alarm for a replayed "
                       "history: ") +
               e.what());
      return;
    }
    if (!detected) {
      fail("replay-undetected",
           "open accepted a replayed history snapshot (" + op.to_wire() + ")");
      return;
    }
    ++rep_.cov.replays_detected;

    // Heal: restore the present tuple wholesale.
    push_sync(rev_, good_content, good_chain);
    if (auto* d = authority().table().find(kDocId)) {
      d->witnesses = good_witnesses;
      authority().table().persist_audit(kDocId, *d);
    }
    verify_open_clean("heal");
  }

  /// Post-equivocation heal: both lineages are compromised, so the run
  /// re-creates the document through the mediator (server wipes chain and
  /// witnesses, A re-roots at a fresh genesis) and restores the reference
  /// bytes with a normal full save.
  void recreate_document() {
    if (!rep_.ok) return;
    const std::string text = model_;
    for (int attempt = 0;; ++attempt) {
      try {
        FormData f;
        f.add("cmd", "create");
        const net::HttpResponse resp = post(f.encode());
        if (!resp.ok()) {
          fail("heal", "re-create rejected: HTTP " +
                           std::to_string(resp.status));
          return;
        }
        rev_ = parse_rev_field(FormData::parse(resp.body).get("rev"));
        break;
      } catch (const net::TransportError&) {
        ++rep_.cov.transport_errors;
        if (attempt >= 64) {
          fail("heal", "re-create: transport faults exhausted retries");
          return;
        }
      }
    }
    model_.clear();
    undo_.clear();
    snapshots_.clear();  // pre-create lineage is gone
    b_auditor_.reset();
    if (!text.empty()) exec_full_save(text);
    check_model();
  }

  /// End-of-run invariant for audit runs: every injected attack was
  /// detected (zero silent forks — the per-op fails enforce the same, this
  /// re-asserts the aggregate), the chain machinery demonstrably ran, and
  /// a final open verifies the full history clean.
  void audit_quiesce_check() {
    const auto& cov = rep_.cov;
    if (cov.equivocations_detected != cov.equivocations_injected) {
      fail("equivocation-undetected",
           std::to_string(cov.equivocations_injected -
                          cov.equivocations_detected) +
               " injected equivocations were never detected");
      return;
    }
    if (cov.witness_suppressions_detected != cov.witness_suppressions_injected) {
      fail("witness-suppression-undetected",
           std::to_string(cov.witness_suppressions_injected -
                          cov.witness_suppressions_detected) +
               " injected witness suppressions were never detected");
      return;
    }
    if (cov.replays_detected != cov.replays_injected) {
      fail("replay-undetected",
           std::to_string(cov.replays_injected - cov.replays_detected) +
               " injected replays were never detected");
      return;
    }
    if (audit_links_acc_ + mediator_->counters().audit_links_committed == 0) {
      fail("audit-quiesce",
           "audit=1 run committed no chain links — the machinery never ran");
      return;
    }
    verify_open_clean("audit-quiesce");
  }

  // ----- crash seams -----

  void exec_crash(const SimOp& op) {
    // Needs durable state on both sides. Sharded runs exercise provider
    // crashes through kShardCrash instead (store seams would fire inside a
    // shard's FileStore, which the shard-crash op covers directly).
    if (!cfg_.journal || !cfg_.persist || sharded()) return;
    std::vector<const char*> seams(std::begin(kJournalSeams),
                                   std::end(kJournalSeams));
    seams.insert(seams.end(), std::begin(kStoreSeams), std::end(kStoreSeams));
    if (cfg_.audit) {
      // The auditor's chain-head log has its own write-ahead seams: a
      // crash between staging a link and the save must never lose (or
      // double-apply) the head.
      seams.insert(seams.end(), std::begin(kAuditSeams),
                   std::end(kAuditSeams));
    }
    const char* seam = seams[op.arg % seams.size()];

    SimOp edit;
    edit.kind = SimOpKind::kInsert;
    edit.pos_ppm = 1'000'000;
    edit.len = op.arg % 5 + 1;
    edit.cls = TextClass::kWords;
    edit.arg = op.arg;
    const Splice s = make_splice(edit);
    const std::string before = model_;
    std::string after = model_;
    after.replace(s.pos, s.del, s.text);

    CrashPoints::arm(seam, 1);
    bool crashed = false;
    try {
      send_splice(s, false);
    } catch (const CrashError&) {
      crashed = true;
    }
    CrashPoints::disarm();
    if (!crashed) return;  // seam not reached before the op completed

    ++rep_.cov.crashes_fired;
    ++epoch_;
    build_world();  // power loss: everything volatile is gone
    net::HttpResponse resp;
    try {
      resp = open_request();  // replays the journal (revision CAS)
    } catch (const Error& e) {
      fail("crash-recovery", std::string("open after crash threw: ") + e.what());
      return;
    }
    if (!resp.ok()) {
      fail("crash-recovery",
           "open after crash: HTTP " + std::to_string(resp.status));
      return;
    }
    const FormData reply = FormData::parse(resp.body);
    const std::string content = reply.get("content").value_or("");
    if (content != before && content != after) {
      fail("crash-divergence",
           "recovered document (" + std::to_string(content.size()) +
               " bytes) is neither the pre-crash (" +
               std::to_string(before.size()) + ") nor the attempted (" +
               std::to_string(after.size()) + ") state [seam " + seam + "]");
      return;
    }
    model_ = content;
    rev_ = parse_rev_field(reply.get("rev"));
    undo_.clear();
    ++rep_.cov.crashes_recovered;
    check_model();
  }

  // ----- storage integrity -----

  std::string store_dir() const {
    namespace fs = std::filesystem;
    return (fs::path(cfg_.work_dir) / "store").string();
  }

  /// fsck configuration matching this run: journal anchors when the
  /// journal is on, plus full decrypt validation (cheap here — the sim's
  /// KDF iteration count is deliberately tiny).
  cloud::CheckConfig store_check_config() const {
    cloud::CheckConfig cc;
    if (cfg_.journal) {
      namespace fs = std::filesystem;
      cc.anchors = extension::load_journal_anchors(
          (fs::path(cfg_.work_dir) / "journal").string());
    }
    cc.deep_validate = [this](const std::string& content) {
      try {
        extension::DocumentSession::open(
            cfg_.password, content,
            extension::seeded_rng_factory(cfg_.seed ^ 0xf5c8ULL));
        return true;
      } catch (const Error&) {
        return false;
      }
    };
    if (cfg_.audit) {
      // Structural chain check over the audit sidecar: revisions ascend
      // and the stored tip speaks for the stored record (kChainBreak
      // findings otherwise).
      namespace fs = std::filesystem;
      const std::string sidecar_dir = store_dir() + "/.audit";
      if (fs::is_directory(sidecar_dir)) {
        const cloud::FileStore sidecar(sidecar_dir);
        for (const auto& [id, record] : sidecar.load_all()) {
          const std::string chain =
              FormData::parse(record.content).get("chain").value_or("");
          if (!chain.empty()) cc.chains[id] = chain;
        }
      }
    }
    return cc;
  }

  cloud::CheckReport run_store_check() const {
    cloud::FileStore store(store_dir());
    return cloud::check_store(store, store_check_config());
  }

  /// Storage adversary: rot the document's on-disk record (rev line or a
  /// content byte), restart the provider on the damaged store, and require
  /// that fsck detects the rot where detection is possible — then repair
  /// through the cmd=sync push and require a clean re-check plus model
  /// equivalence.
  void exec_store_rot(const SimOp& op) {
    // Classic-topology op: it reaches straight into work_dir/store. Sharded
    // runs get their storage adversary from crash/rebalance instead.
    if (!cfg_.persist || offline_now() || sharded()) return;
    const auto raw = server_->raw_content(kDocId);
    if (!raw || raw->empty()) return;
    const std::string good = *raw;

    namespace fs = std::filesystem;
    const std::string path =
        (fs::path(store_dir()) /
         (hex_encode(as_bytes(std::string(kDocId))) + ".doc"))
            .string();
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      if (!in.good()) return;
      std::ostringstream buf;
      buf << in.rdbuf();
      bytes = buf.str();
    }
    if (bytes.empty()) return;
    const bool rot_rev_line = op.arg % 4 == 0;
    if (rot_rev_line) {
      bytes[0] = 'x';  // the rev line no longer parses: unreadable record
    } else {
      const std::size_t nl = bytes.find('\n');
      if (nl == std::string::npos || nl + 1 >= bytes.size()) return;
      const std::size_t at = nl + 1 + op.arg % (bytes.size() - nl - 1);
      bytes[at] = flip_char(bytes[at], op.arg >> 8);
    }
    {
      // Deliberately non-atomic: this is the adversary, not the SUT.
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    ++rep_.cov.store_rots_injected;

    // Provider restart on the damaged store (tolerant load: an unreadable
    // record quarantines the doc instead of killing the boot).
    ++epoch_;
    build_world();

    const cloud::CheckReport report = run_store_check();
    // Detection is REQUIRED when the damage is structural (rev line), when
    // the journal anchor can expose a byte change (checksum mismatch at
    // the acked revision), or when RPC's cryptographic integrity must
    // reject the container. Outside those, a flipped ciphertext byte in a
    // confidentiality-only mode can legitimately decode to garbage.
    const bool must_detect =
        rot_rev_line || cfg_.journal || cfg_.mode == enc::Mode::kRpc;
    if (!report.store_clean()) {
      ++rep_.cov.store_rots_detected;
    } else if (must_detect) {
      fail("store-rot-undetected",
           std::string("fsck reported a rotted store clean (") +
               (rot_rev_line ? "rev line" : "content byte") + ", " +
               op.to_wire() + ")");
      return;
    }

    // Repair = the replica anti-entropy push (cmd=sync with the good
    // bytes), which also lifts a boot quarantine after validation.
    heal(good);
    if (!rep_.ok) return;
    const cloud::CheckReport post = run_store_check();
    if (!post.store_clean()) {
      fail("store-rot-unrepaired",
           "fsck still dirty after repair: " +
               std::string(cloud::finding_kind_name(
                   post.findings.front().kind)) +
               " — " + post.findings.front().detail);
      return;
    }
    ++rep_.cov.store_rots_repaired;
  }

  /// End-of-run invariant for persist runs: after quiesce the store must
  /// check completely clean — structure, decrypt, and journal anchors.
  void store_quiesce_check() {
    const cloud::CheckReport report = run_store_check();
    if (!report.store_clean()) {
      fail("store-quiesce",
           "store dirty at quiesce: " +
               std::string(
                   cloud::finding_kind_name(report.findings.front().kind)) +
               " — " + report.findings.front().detail);
    }
  }

  // ----- failure bookkeeping -----

  void fail(const std::string& id, const std::string& message) {
    if (!rep_.ok) return;  // first failure wins
    rep_.ok = false;
    rep_.failure_id = id;
    rep_.message = message;
    rep_.failed_at_op = current_op_;
  }

  struct Snapshot {
    std::uint64_t rev = 0;
    std::string content;
    std::string achain;  // audit chain wire at that rev (audit runs)
    std::map<std::string, std::string> witnesses;  // served witness set
  };

  const SimConfig& cfg_;
  const Script& script_;
  SimReport rep_;

  net::SimClock clock_;
  std::unique_ptr<cloud::GDocsServer> server_;  // classic topology
  std::unique_ptr<cloud::ShardRouter> router_;  // sharded topology
  std::map<std::string, std::string> fixtures_;  // doc id -> reference bytes
  std::unique_ptr<net::LoopbackTransport> loop_;
  std::unique_ptr<net::FaultyChannel> faulty_;
  std::unique_ptr<net::RetryChannel> retry_;
  std::unique_ptr<extension::GDocsMediator> mediator_;
  std::unique_ptr<extension::DocumentAuditor> b_auditor_;  // client B (audit)

  std::string model_;  // the reference: a plain byte string
  std::uint64_t rev_ = 0;
  std::deque<Splice> undo_;       // inverse splices, most recent last
  std::deque<Snapshot> snapshots_;  // older acked states (rollback fodder)
  std::uint64_t epoch_ = 0;       // bumped per world rebuild
  std::size_t current_op_ = 0;
  // Audit counters banked across world rebuilds (crashes reset the
  // mediator, not the run's evidence).
  std::size_t audit_links_acc_ = 0;
  std::size_t audit_retries_acc_ = 0;
  std::size_t witnesses_acc_ = 0;
};

}  // namespace

SimReport run_script(const SimConfig& config, const Script& script) {
  return Runner(config, script).run();
}

SimReport run_sim(const SimConfig& config) {
  return run_script(config, generate_script(config));
}

}  // namespace privedit::sim
