#include "privedit/extension/mediator.hpp"

#include <filesystem>

#include "privedit/cloud/xml.hpp"
#include "privedit/enc/container.hpp"
#include "privedit/crypto/sha256.hpp"
#include "privedit/delta/delta.hpp"
#include "privedit/net/admission.hpp"
#include "privedit/net/retry.hpp"
#include "privedit/util/crc32.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/hex.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::extension {
namespace {

constexpr std::string_view kBespinPrefix = "/file/at/";
constexpr std::string_view kBuzzwordPrefix = "/doc/";

std::uint64_t parse_rev(const std::optional<std::string>& rev) {
  if (!rev) return 0;
  try {
    return std::stoull(*rev);
  } catch (...) {
    return 0;
  }
}

/// The Ack the mediator synthesizes for an edit it queued offline. The
/// hash is "0" — the same blanked value the editor tolerates online — and
/// the revision continues the editor's own sequence so it keeps editing
/// without noticing the outage. `offline=1` is a diagnostic marker.
net::HttpResponse synth_offline_ack(std::uint64_t editor_rev) {
  FormData form;
  form.add("contentFromServerHash", "0");
  form.add("rev", std::to_string(editor_rev));
  form.add("offline", "1");
  return net::HttpResponse::make(200, form.encode(),
                                 "application/x-www-form-urlencoded");
}

/// Explicit backpressure: the offline queue is at capacity and the editor
/// must slow down (or the user must reconnect). Never a silent drop.
net::HttpResponse offline_backpressure_response() {
  net::HttpResponse resp = net::HttpResponse::make(
      503, "offline edit queue full; server unreachable");
  resp.headers.set("Retry-After", "1");
  return resp;
}

/// Rewrites the ack's revision to the editor's expected value. Needed when
/// the mediator owns the wire revision (offline mode): the server's real
/// revision lags the editor's virtual one after a composed flush.
void rewrite_ack_rev(net::HttpResponse& resp, std::uint64_t editor_rev) {
  FormData body = FormData::parse(resp.body);
  body.set("rev", std::to_string(editor_rev));
  resp.body = body.encode();
}

}  // namespace

GDocsMediator::GDocsMediator(net::Channel* upstream, MediatorConfig config,
                             net::SimClock* clock)
    : upstream_(upstream), config_(std::move(config)), clock_(clock) {
  if (upstream_ == nullptr) {
    throw Error(ErrorCode::kInvalidArgument, "GDocsMediator: null upstream");
  }
  mitigation_rng_ = config_.rng_factory();
  if (config_.offline.enabled) {
    std::function<std::uint64_t()> now =
        clock_ != nullptr
            ? std::function<std::uint64_t()>(
                  [c = clock_] { return c->now_us(); })
            : net::now_steady_us;
    breaker_ = std::make_unique<net::CircuitBreaker>(config_.offline.breaker,
                                                     std::move(now));
  }
}

net::HttpResponse GDocsMediator::send_upstream(
    const net::HttpRequest& request) {
  if (!config_.client_id.empty() &&
      !request.headers.contains(net::kClientIdHeader)) {
    // Stamp the tenant identity once; recursing with the header present
    // falls straight through to the transport path below.
    net::HttpRequest labeled = request;
    labeled.headers.set(net::kClientIdHeader, config_.client_id);
    return send_upstream(labeled);
  }
  if (breaker_ == nullptr) return upstream_->round_trip(request);
  if (!breaker_->allow()) {
    ++counters_.breaker_short_circuits;
    throw net::TransportError(net::FaultKind::kConnect,
                              "mediator: circuit breaker open");
  }
  try {
    net::HttpResponse resp = upstream_->round_trip(request);
    breaker_->record_success();
    return resp;
  } catch (const net::TransportError&) {
    breaker_->record_failure();
    throw;
  }
}

bool GDocsMediator::offline_active(const std::string& doc_id) const {
  const auto it = offline_.find(doc_id);
  return it != offline_.end() && it->second.active();
}

std::size_t GDocsMediator::offline_queued(const std::string& doc_id) const {
  const auto it = offline_.find(doc_id);
  return it == offline_.end() ? 0 : it->second.queued();
}

net::HttpResponse GDocsMediator::blocked(const std::string& why) {
  ++counters_.requests_blocked;
  return net::HttpResponse::make(
      403, "blocked by private-editing extension: " + why);
}

void GDocsMediator::blank_ack_fields(net::HttpResponse& response) {
  FormData body = FormData::parse(response.body);
  bool touched = false;
  // Only a server's ack has anything to blank; a synthesized one does not.
  if (const auto content = body.get("contentFromServer");
      content && !content->empty()) {
    body.set("contentFromServer", "");
    touched = true;
  }
  if (const auto hash = body.get("contentFromServerHash");
      hash && *hash != "0") {
    body.set("contentFromServerHash", "0");
    touched = true;
  }
  if (touched) {
    response.body = body.encode();
    ++counters_.acks_blanked;
  }
}

EditJournal* GDocsMediator::journal_for(const std::string& doc_id) {
  if (config_.journal_dir.empty()) return nullptr;
  auto it = journals_.find(doc_id);
  if (it == journals_.end()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.journal_dir, ec);
    if (ec) {
      throw Error(ErrorCode::kState,
                  "journal: cannot create " + config_.journal_dir + ": " +
                      ec.message());
    }
    auto journal = std::make_unique<EditJournal>(
        config_.journal_dir + "/" + hex_encode(as_bytes(doc_id)) + ".wal");
    if (journal->recovered_torn_tail()) ++counters_.torn_tails_recovered;
    it = journals_.emplace(doc_id, std::move(journal)).first;
  }
  return it->second.get();
}

void GDocsMediator::settle_journal(EditJournal& journal,
                                   const net::HttpResponse& resp,
                                   std::uint64_t base_rev,
                                   const std::string& checksum) {
  if (!resp.ok()) {
    // A clean rejection (409 stale, 400 malformed) means the server did
    // NOT apply the update — replaying it later would be wrong. Only a
    // transport failure (exception, no response at all) leaves the entry
    // pending for recovery, because only then is the outcome unknown.
    journal.drop_front();
    ++counters_.journal_drops;
    return;
  }
  const FormData ack = FormData::parse(resp.body);
  std::uint64_t acked_rev = base_rev + 1;
  if (const auto rev = ack.get("rev")) acked_rev = parse_rev(rev);
  if (const auto server_hash = ack.get("contentFromServerHash")) {
    // The server's claim about its post-update content vs our mirror.
    // A mismatch here is a concurrent (unmediated) writer or a lying
    // server; the next open settles which via rollback detection.
    if (*server_hash != checksum && *server_hash != "0") {
      ++counters_.ack_checksum_mismatches;
    }
  }
  journal.ack_front(acked_rev, checksum);
}

void GDocsMediator::journal_offline_entry(const std::string& doc_id,
                                          const OfflineQueue& q) {
  EditJournal* journal = journal_for(doc_id);
  if (journal == nullptr) return;
  const auto it = sessions_.find(doc_id);
  if (it == sessions_.end()) return;
  // At most ONE offline entry is ever pending: the composed update. Each
  // newly queued edit replaces it (drop + append), so a crash while offline
  // recovers exactly the composed state through the normal WAL replay.
  while (!journal->pending().empty()) journal->drop_front();
  const std::string& cipher_doc = it->second.container();
  journal->append_pending(
      {q.base_rev(), q.full_save(), crypto::content_hash16(cipher_doc),
       q.full_save() ? cipher_doc : q.pending_cipher()->to_wire()});
  ++counters_.journal_appends;
}

bool GDocsMediator::try_flush(const std::string& doc_id) {
  if (!config_.offline.enabled) return true;
  const auto oit = offline_.find(doc_id);
  if (oit == offline_.end() || !oit->second.active()) return true;
  OfflineQueue& q = oit->second;
  if (sessions_.find(doc_id) == sessions_.end()) {
    q.clear();  // document vanished under us; nothing left to replay
    return true;
  }
  // The composed update, resent at the queue's base revision (send_update
  // substitutes it: server_rev_ tracks q.base_rev() while offline).
  Update u;
  u.flush = true;
  u.full_save = q.full_save();
  const auto build = [&] {
    DocumentSession& session = sessions_.find(doc_id)->second;
    u.form = FormData{};
    u.form.add("session", "offline-replay");
    if (q.full_save()) {
      u.container = session.container();
      u.form.add("docContents", u.container);
    } else {
      u.form.add("delta", q.pending_cipher()->to_wire());
    }
    q.note_attempt(session.plaintext());
  };
  build();
  // The server advanced while we were away — or an earlier flush landed
  // and its ack was lost. Decrypt its authoritative state and decide.
  bool deduped = false;
  u.rebuild = [&](const FormData& rejection) {
    DocumentSession fresh = DocumentSession::open(
        config_.password, *rejection.get("contentFromServer"),
        config_.rng_factory);
    const std::string server_plain = fresh.plaintext();
    const std::string mirror = sessions_.find(doc_id)->second.plaintext();
    const std::uint64_t new_rev = parse_rev(rejection.get("rev"));
    server_rev_[doc_id] = new_rev;
    if (server_plain == mirror) {
      // Everything we queued is already there (a delivered flush whose ack
      // died): adopt the server's container, settle, go back online.
      // Resending would duplicate every queued edit.
      if (EditJournal* journal = journal_for(doc_id)) {
        if (!journal->pending().empty()) {
          journal->ack_front(new_rev,
                             crypto::content_hash16(fresh.container()));
        }
      }
      sessions_.erase(doc_id);
      sessions_.emplace(doc_id, std::move(fresh));
      ++counters_.offline_dedupes;
      deduped = true;
      return false;
    }
    if (q.full_save()) {
      // A full save overwrites whatever the server holds; only the CAS
      // base needs refreshing. The mirror stays OUR content — it is the
      // payload — so the fresh session is discarded.
      q.rebase(new_rev, server_plain, delta::Delta{}, delta::Delta{});
    } else {
      delta::Delta remaining;
      if (q.attempted(server_plain)) {
        // An earlier flush attempt landed (ack lost) and more edits queued
        // since: only the difference still needs to go. Resending the
        // whole composed update would duplicate the half that landed. The
        // history check matters: under an asymmetric outage several
        // attempts can be in doubt at once, and the one the server holds
        // need not be the latest — misreading it as foreign progress would
        // rebase our own edits over themselves.
        remaining = delta::myers_diff(server_plain, mirror);
        ++counters_.offline_dedupes;
      } else {
        // Genuine concurrent server-side progress: rebase the composed
        // update over it, exactly like the collaborative 409 path.
        const delta::Delta theirs =
            delta::myers_diff(q.base_plain(), server_plain);
        remaining = delta::Delta::transform(*q.pending_plain(), theirs,
                                            /*a_wins=*/false);
        ++counters_.offline_rebases;
      }
      const delta::Delta new_cipher = fresh.transform_delta(remaining);
      sessions_.erase(doc_id);
      sessions_.emplace(doc_id, std::move(fresh));
      q.rebase(new_rev, server_plain, remaining, new_cipher);
    }
    journal_offline_entry(doc_id, q);
    build();
    return true;
  };
  net::HttpResponse resp;
  try {
    resp = send_update(doc_id, q.target(), u);
  } catch (const net::TransportError&) {
    return false;  // still unreachable (or the breaker refused the probe)
  }
  if (!resp.ok() && !deduped) return false;  // refusing (overload?); stay
  ++counters_.offline_flushes;
  counters_.offline_flush_edits += q.queued();
  q.clear();
  return true;
}

net::HttpResponse GDocsMediator::send_update(const std::string& doc_id,
                                             const std::string& target,
                                             Update& u) {
  OfflineQueue* oq = config_.offline.enabled ? &offline_[doc_id] : nullptr;
  const auto queue_offline = [&] {
    // The mirror already holds the update, which is exactly the queue
    // invariant; the flush pushes it when the server is back.
    if (u.full_save) {
      oq->queue_full_save();
    } else {
      oq->queue_delta(u.plain, u.cipher);
    }
    journal_offline_entry(doc_id, *oq);
    ++counters_.offline_acks;
    return synth_offline_ack(++editor_rev_[doc_id]);
  };
  if (oq != nullptr && oq->active() && !u.flush) return queue_offline();
  EditJournal* journal = journal_for(doc_id);
  DocumentAuditor* auditor = auditor_for(doc_id);
  net::HttpResponse resp;
  for (int attempt = 0;; ++attempt) {
    if (config_.offline.enabled) {
      // The mediator owns the wire revision: the editor's view may be a
      // virtual (offline) sequence running ahead of the server's.
      u.form.set("rev", std::to_string(server_rev_[doc_id]));
    }
    const std::uint64_t base_rev = parse_rev(u.form.get("rev"));
    const bool auditing = auditor != nullptr && auditor->initialized();
    // The journal checksum and the audit link both bind the container the
    // update produces. A delta's is the session's, viewed, not copied, and
    // looked up again on every attempt: a rebuild swaps the session.
    const std::string_view container =
        u.full_save ? u.container
                    : sessions_.find(doc_id)->second.container();
    if (auditing) {
      // Durable BEFORE the wire, like the journal entry below.
      stage_link(*auditor, u.form, auditor->committed_rev() + 1,
                 crc32(as_bytes(container)));
    }
    std::string checksum;
    if (journal != nullptr) {
      checksum = crypto::content_hash16(container);
      // Write-ahead: if the send dies below, the entry is still pending at
      // the next open and gets replayed. A flush's entry is already there.
      if (!u.flush) {
        journal->append_pending(
            {base_rev, u.full_save, checksum,
             u.full_save ? u.container : u.form.get("delta").value_or("")});
        ++counters_.journal_appends;
      }
    }
    const bool anchored = u.form.contains("dbase");
    if (anchored) {
      counters_.delta_full_save_bytes += u.form.get("delta")->size();
    } else if (u.full_save) {
      counters_.full_save_bytes += u.container.size();
    }
    std::string body = u.form.encode();
    apply_outgoing_mitigations(body);
    net::HttpRequest request =
        net::HttpRequest::post_form(target, std::move(body));
    // One wire request per breaker cool-down: the probe marker makes every
    // retry layer below take exactly one attempt.
    if (u.flush) request.headers.set(net::kProbeHeader, "1");
    try {
      resp = send_upstream(request);
    } catch (const net::TransportError&) {
      if (oq == nullptr || u.flush) throw;  // a flush stays offline
      // Retry budget exhausted (or breaker open): flip the document
      // offline.
      oq->enter(server_rev_[doc_id],
                u.undo.apply(sessions_.find(doc_id)->second.plaintext()),
                target);
      ++counters_.offline_entered;
      return queue_offline();
    }
    // A flush that did not land keeps its entry: the queue still holds it.
    if (journal != nullptr && !journal->pending().empty() &&
        (resp.ok() || !u.flush)) {
      settle_journal(*journal, resp, base_rev, checksum);
    }
    if (resp.status != 409 && resp.status != 412) break;
    const FormData rejection = FormData::parse(resp.body);
    // A 412 areason=chain is retried like a conflict: the update is fine,
    // only the staged link extended a stale head (a peer advanced the
    // chain under us).
    const bool chain = auditor != nullptr && resp.status == 412 &&
                       rejection.get("areason") == "chain";
    if (chain) ++counters_.audit_chain_retries;
    if (anchored && !chain && resp.status == 412) {
      // The anchor missed: the server's container is not what our mirror
      // says (lost save, concurrent unmediated writer, provider tampering).
      // The plain full save is always correct.
      ++counters_.delta_full_save_fallbacks;
      u.form.remove("dbase");
      u.form.remove("delta");
      u.form.set("docContents", u.container);
      continue;
    }
    // A 409 is rebuilt on by a flush and by collaborative editing; the
    // editor sees it otherwise. A full save resends the same container, so
    // two chain retries suffice for it.
    const bool conflict =
        resp.status == 409 && (u.flush || config_.collaborative);
    const int max_retries =
        u.full_save && !u.flush ? 2 : config_.max_rebase_retries;
    if (!(chain || conflict) || attempt >= max_retries ||
        !rejection.contains("contentFromServer") ||
        !rejection.contains("rev")) {
      break;
    }
    if (auditor != nullptr) {
      // Verify the rejection's chain and fast-forward BEFORE re-staging: a
      // link computed from a stale head would make the whole chain
      // unverifiable for every client.
      auditor->drop_staged();
      audit_adopt_served(doc_id, *auditor, rejection);
    }
    if (u.rebuild && !u.rebuild(rejection)) break;
  }
  if (settle_link(doc_id, auditor, resp)) {
    maybe_publish_witness(target, *auditor);
  }
  if (resp.ok() && u.form.contains("dbase")) ++counters_.delta_full_saves;
  if (config_.offline.enabled && resp.ok()) {
    const bool drifted = editor_rev_[doc_id] != server_rev_[doc_id];
    server_rev_[doc_id] = parse_rev(FormData::parse(resp.body).get("rev"));
    if (!u.flush) {
      if (drifted) {
        rewrite_ack_rev(resp, ++editor_rev_[doc_id]);
      } else {
        editor_rev_[doc_id] = server_rev_[doc_id];
      }
    }
  }
  return resp;
}

void GDocsMediator::stage_link(DocumentAuditor& auditor, FormData& form,
                               std::uint64_t rev, std::uint32_t crc) {
  // crc 0 is the auditor's "unbound" sentinel — only a journal replay of a
  // delta lacks the container. A link staged for the same revision before
  // the crash does bind it, so it is reused.
  if (crc != 0 || !auditor.has_staged() || auditor.staged()->rev != rev) {
    auditor.stage_link(rev, crc);
  }
  form.set("alink", enc::encode_link(*auditor.staged()));
  form.set("abase", hex_encode(auditor.committed_head()));
  form.set("abaserev", std::to_string(auditor.committed_rev()));
}

bool GDocsMediator::settle_link(const std::string& doc_id,
                                DocumentAuditor* auditor,
                                const net::HttpResponse& resp) {
  if (auditor == nullptr || !auditor->has_staged()) return false;
  if (!resp.ok()) {
    // A clean rejection: the server did not apply the save, so the staged
    // link must not survive to poison the next verify.
    auditor->drop_staged();
    return false;
  }
  raise_audit_verdict(
      doc_id, auditor->verify_ack(FormData::parse(resp.body).get("achain")));
  auditor->commit_staged();
  ++counters_.audit_links_committed;
  return true;
}

DocumentAuditor* GDocsMediator::auditor_for(const std::string& doc_id) {
  if (!config_.audit) return nullptr;
  auto it = auditors_.find(doc_id);
  if (it == auditors_.end()) {
    std::string log_path;
    if (!config_.journal_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(config_.journal_dir, ec);
      if (ec) {
        throw Error(ErrorCode::kState,
                    "audit: cannot create " + config_.journal_dir + ": " +
                        ec.message());
      }
      log_path =
          config_.journal_dir + "/" + hex_encode(as_bytes(doc_id)) + ".achain";
    }
    auto auditor = std::make_unique<DocumentAuditor>(
        enc::derive_audit_key(config_.password, doc_id), doc_id,
        config_.client_id.empty() ? "anon" : config_.client_id,
        std::move(log_path));
    if (auditor->recovered_torn_tail()) ++counters_.torn_tails_recovered;
    it = auditors_.emplace(doc_id, std::move(auditor)).first;
  }
  return it->second.get();
}

void GDocsMediator::raise_audit_verdict(
    const std::string& doc_id, const DocumentAuditor::Verification& v) {
  switch (v.verdict) {
    case AuditVerdict::kOk:
      return;
    case AuditVerdict::kRollback:
      ++counters_.audit_rollbacks;
      throw RollbackError("document '" + doc_id + "': " + v.detail);
    case AuditVerdict::kFork:
      ++counters_.audit_forks;
      throw ForkError("document '" + doc_id + "': " + v.detail);
    case AuditVerdict::kEquivocation:
      ++counters_.audit_equivocations;
      throw EquivocationError("document '" + doc_id + "': " + v.detail);
  }
}

void GDocsMediator::audit_adopt_served(const std::string& doc_id,
                                       DocumentAuditor& auditor,
                                       const FormData& body) {
  const auto chain_wire = body.get("achain");
  const auto content = body.get("contentFromServer");
  if (!chain_wire || !content) return;  // nothing to judge; open settles it
  enc::AuditChain chain;
  try {
    chain = enc::decode_chain(*chain_wire);
  } catch (const Error&) {
    ++counters_.audit_forks;
    throw ForkError("document '" + doc_id +
                    "': unparseable audit chain in save rejection");
  }
  const DocumentAuditor::Verification v = auditor.verify_served(
      chain, parse_rev(body.get("rev")), crc32(as_bytes(*content)));
  if (v.staged_landed) ++counters_.audit_links_committed;
  raise_audit_verdict(doc_id, v);
}

void GDocsMediator::publish_witness(const std::string& target,
                                    DocumentAuditor& auditor) {
  // Best-effort: a lost store is indistinguishable from suppression, and
  // suppression is exactly what the next open's witness check detects.
  FormData form;
  form.add("cmd", "witness");
  form.add("w", enc::encode_witness(auditor.own_witness()));
  try {
    const net::HttpResponse resp =
        send_upstream(net::HttpRequest::post_form(target, form.encode()));
    if (resp.ok()) {
      auditor.note_witness_published();
      ++counters_.witnesses_published;
    }
  } catch (const net::TransportError&) {
  }
}

void GDocsMediator::maybe_publish_witness(const std::string& target,
                                          DocumentAuditor& auditor) {
  if (config_.witness_interval <= 0) return;
  if (const auto& published = auditor.published_rev()) {
    if (auditor.committed_rev() <
        *published + static_cast<std::uint64_t>(config_.witness_interval)) {
      return;
    }
  }
  publish_witness(target, auditor);
}

void GDocsMediator::audit_check_open(const std::string& doc_id,
                                     const std::string& target,
                                     const FormData& reply,
                                     const std::string& content) {
  DocumentAuditor* auditor = auditor_for(doc_id);
  if (auditor == nullptr) return;
  const std::uint64_t rev = parse_rev(reply.get("rev"));
  const std::uint32_t crc = crc32(as_bytes(content));
  const auto chain_wire = reply.get("achain");

  if (!chain_wire) {
    if (auditor->initialized() && auditor->committed_rev() > 0) {
      ++counters_.audit_forks;
      throw ForkError("document '" + doc_id +
                      "': server presented no audit chain despite history "
                      "acknowledged through rev " +
                      std::to_string(auditor->committed_rev()));
    }
    // Pre-chain document: baseline at the genesis head; the next save's
    // abase roots the server-side chain here.
    if (!auditor->initialized()) auditor->reset(rev);
    return;
  }

  enc::AuditChain chain;
  try {
    chain = enc::decode_chain(*chain_wire);
  } catch (const Error&) {
    ++counters_.audit_forks;
    throw ForkError("document '" + doc_id + "': unparseable audit chain");
  }

  if (!auditor->initialized()) {
    // First contact with an already-chained document: the base head is
    // trust-on-first-use, every link above it verifies under the key.
    if (!enc::verify_chain(auditor->key(), chain) ||
        chain.tip_rev() != rev ||
        (!chain.links.empty() && chain.links.back().crc != 0 &&
         chain.links.back().crc != crc)) {
      ++counters_.audit_forks;
      throw ForkError("document '" + doc_id +
                      "': served chain fails verification on first contact");
    }
    auditor->adopt(rev, chain.links.empty() ? chain.base_head
                                            : chain.links.back().head);
  } else {
    const DocumentAuditor::Verification v =
        auditor->verify_served(chain, rev, crc);
    if (v.staged_landed) ++counters_.audit_links_committed;
    raise_audit_verdict(doc_id, v);
  }

  // SUNDR-style cross-client detection: judge every witness the server
  // serves, then make sure our own published claim was not suppressed.
  std::optional<enc::AuditWitness> own;
  for (const auto& [key, value] : reply.fields()) {
    if (key != "w") continue;
    enc::AuditWitness w;
    try {
      w = enc::decode_witness(value);
    } catch (const Error&) {
      continue;  // server garbage; only a valid MAC proves anything
    }
    if (w.client == auditor->client_id()) {
      own = w;
      continue;
    }
    raise_audit_verdict(doc_id, auditor->check_witness(w));
  }
  if (auditor->witness_suppressed(own)) {
    ++counters_.witness_suppressions;
    ++counters_.audit_equivocations;
    throw EquivocationError(
        "document '" + doc_id +
        "': server suppressed this client's published chain-head witness");
  }
  if (!auditor->published_rev() ||
      *auditor->published_rev() < auditor->committed_rev()) {
    publish_witness(target, *auditor);
  }
}

net::HttpResponse GDocsMediator::recover_open(const std::string& doc_id,
                                              const net::HttpRequest& request,
                                              net::HttpResponse resp) {
  EditJournal* journal = journal_for(doc_id);
  if (journal == nullptr) return resp;
  const FormData reply = FormData::parse(resp.body);
  const std::string content = reply.get("content").value_or("");
  std::uint64_t rev = parse_rev(reply.get("rev"));

  if (const auto& acked = journal->last_acked()) {
    // §II rollback adversary: the provider restored a backup (older rev)
    // or forked the history (same rev, different bytes). Either way the
    // server is contradicting an acknowledgement it already gave us.
    if (rev < acked->rev) {
      ++counters_.rollbacks_detected;
      throw RollbackError(
          "server rolled back document '" + doc_id + "': presented rev " +
          std::to_string(rev) + " older than acknowledged rev " +
          std::to_string(acked->rev));
    }
    if (rev == acked->rev && crypto::content_hash16(content) != acked->checksum) {
      ++counters_.rollbacks_detected;
      throw RollbackError("server forked document '" + doc_id +
                          "': content at acknowledged rev " +
                          std::to_string(rev) +
                          " differs from the acknowledged checksum");
    }
  }

  // Idempotent replay of unacknowledged updates. The CAS is the revision:
  // an entry is resent only while the server still sits at its base
  // revision; a server already past it applied the update before the
  // crash (ack lost in flight), so the entry is settled, not resent.
  bool replayed = false;
  while (!journal->pending().empty()) {
    const JournalEntry& entry = journal->pending().front();
    if (rev > entry.base_rev) {
      journal->drop_front();
      ++counters_.journal_drops;
      continue;
    }
    if (rev < entry.base_rev) break;  // gap — never replay out of order
    FormData form;
    form.add("session", "journal-recovery");
    form.add("rev", std::to_string(entry.base_rev));
    form.add(entry.full_save ? "docContents" : "delta", entry.update);
    DocumentAuditor* auditor = auditor_for(doc_id);
    if (auditor != nullptr && auditor->initialized()) {
      // The replayed save must extend the chain like the original send
      // would have. Only a full save knows its container bytes here; a
      // delta replay reuses the link staged before the crash, if any, or
      // binds the "unbound" crc 0.
      stage_link(*auditor, form, entry.base_rev + 1,
                 entry.full_save ? crc32(as_bytes(entry.update)) : 0);
    }
    const net::HttpResponse replay_resp = send_upstream(
        net::HttpRequest::post_form(request.target, form.encode()));
    if (!replay_resp.ok()) break;  // refused now; retried at the next open
    const FormData ack = FormData::parse(replay_resp.body);
    rev = ack.contains("rev") ? parse_rev(ack.get("rev"))
                              : entry.base_rev + 1;
    journal->ack_front(rev, entry.checksum);
    settle_link(doc_id, auditor, replay_resp);
    ++counters_.journal_replays;
    replayed = true;
  }
  if (replayed) {
    // The authoritative content now includes the replayed edits.
    resp = send_upstream(request);
  }
  return resp;
}

void GDocsMediator::apply_outgoing_mitigations(std::string& form_body) {
  if (config_.pad_bucket > 0) {
    // Quantise the body length: every message becomes a multiple of the
    // bucket, so length leaks at bucket granularity only.
    const std::size_t base = form_body.size() + 5;  // "&pad="
    const std::size_t target =
        (base + config_.pad_bucket - 1) / config_.pad_bucket *
        config_.pad_bucket;
    form_body += "&pad=";
    form_body.append(target - base, 'x');
  }
  if (config_.random_delay_us > 0 && clock_ != nullptr) {
    clock_->advance_us(mitigation_rng_->below(config_.random_delay_us + 1));
  }
}

net::HttpResponse GDocsMediator::round_trip(const net::HttpRequest& request) {
  if (request.method != "POST" || request.path() != "/Doc") {
    return blocked("unknown endpoint");
  }
  const auto doc_id_opt = request.query_param("docID");
  if (!doc_id_opt) {
    return blocked("missing docID");
  }
  const std::string doc_id = *doc_id_opt;
  FormData form = FormData::parse(request.body);
  const auto cmd = form.get("cmd");
  const bool unmanaged = unmanaged_.count(doc_id) > 0;

  if (cmd == "create") {
    net::HttpRequest outgoing = request;
    DocumentAuditor* auditor = auditor_for(doc_id);
    if (auditor != nullptr) {
      // Root the server-side chain at our genesis head in the same
      // request, so the very first save already extends a stored chain.
      form.set("abase", hex_encode(enc::genesis_head(auditor->key(), doc_id)));
      outgoing.body = form.encode();
    }
    net::HttpResponse resp = send_upstream(outgoing);
    if (resp.ok()) {
      unmanaged_.erase(doc_id);
      sessions_.erase(doc_id);
      sessions_.emplace(doc_id,
                        DocumentSession::create_new(config_.password,
                                                    config_.scheme,
                                                    config_.rng_factory));
      const std::uint64_t rev =
          parse_rev(FormData::parse(resp.body).get("rev"));
      if (auditor != nullptr) auditor->reset(rev);
      if (EditJournal* journal = journal_for(doc_id)) {
        // A create wipes server history; stale pending entries and the old
        // baseline must not outlive it.
        journal->reset(rev, crypto::content_hash16(""));
      }
      if (config_.offline.enabled) {
        offline_[doc_id].clear();
        server_rev_[doc_id] = rev;
        editor_rev_[doc_id] = rev;
      }
    }
    return resp;
  }

  if (cmd == "open") {
    if (offline_active(doc_id) && !try_flush(doc_id)) {
      // Still cut off: answer from the plaintext mirror so the user keeps
      // their document. The revision continues the editor's own sequence.
      const auto sess_it = sessions_.find(doc_id);
      if (sess_it != sessions_.end()) {
        FormData reply;
        reply.add("content", sess_it->second.plaintext());
        reply.add("rev", std::to_string(editor_rev_[doc_id]));
        reply.add("session", "offline");
        reply.add("offline", "1");
        ++counters_.offline_opens_local;
        return net::HttpResponse::make(200, reply.encode(),
                                       "application/x-www-form-urlencoded");
      }
    }
    net::HttpResponse resp = send_upstream(request);
    if (!resp.ok()) return resp;
    resp = recover_open(doc_id, request, std::move(resp));
    FormData reply = FormData::parse(resp.body);
    const std::string content = reply.get("content").value_or("");
    try {
      // An empty document starts a fresh encrypted session.
      DocumentSession session =
          content.empty()
              ? DocumentSession::create_new(config_.password, config_.scheme,
                                            config_.rng_factory)
              : DocumentSession::open(config_.password, content,
                                      config_.rng_factory);
      // The container decrypted, so these are genuine client-written
      // bytes — now verify they are the HISTORY we were promised. (An
      // empty reply for a document with acknowledged chain history is the
      // server denying that history.)
      audit_check_open(doc_id, request.target, reply, content);
      if (!content.empty()) {
        reply.set("content", session.plaintext());
        resp.body = reply.encode();
        unmanaged_.erase(doc_id);
        ++counters_.opens_decrypted;
      }
      sessions_.erase(doc_id);
      sessions_.emplace(doc_id, std::move(session));
      const std::uint64_t rev = parse_rev(reply.get("rev"));
      if (EditJournal* journal = journal_for(doc_id)) {
        // Converged with the server: adopt its (verified) state as the
        // new baseline. Entries the server refused to take stay pending
        // for the next open, so the baseline must not clobber them.
        if (journal->pending().empty()) {
          journal->reset(rev, crypto::content_hash16(content));
        }
      }
      if (config_.offline.enabled) {
        // The editor now sees the server's real revision: the virtual
        // sequence (if any) reconverges here.
        server_rev_[doc_id] = rev;
        editor_rev_[doc_id] = rev;
      }
      return resp;
    } catch (const ParseError&) {
      // Unparseable content is either a legacy plaintext document (pass
      // through, stop mediating) or a *corrupted* container. If we already
      // hold a session for this document, or the bytes still carry the
      // container magic, it is corruption — in transit or at the provider
      // — and must fail loudly rather than reach the client as "text".
      if (sessions_.count(doc_id) != 0 || enc::looks_like_container(content)) {
        throw IntegrityError(
            "open: ciphertext container corrupted for document '" + doc_id +
            "'");
      }
      unmanaged_.insert(doc_id);
      ++counters_.passthrough_unmanaged;
      return resp;
    }
    // CryptoError (wrong password) and IntegrityError (tampering)
    // propagate to the caller: the user must know.
  }

  if (unmanaged) {
    ++counters_.passthrough_unmanaged;
    return send_upstream(request);
  }

  if (sessions_.find(doc_id) == sessions_.end()) {
    return blocked("document has no active encrypted session");
  }
  // Only the mediator decides which saves ride an anchored cdelta.
  form.remove("dbase");

  // An offline document first tries to reconnect. Still cut off, the save
  // is absorbed locally (send_update queues it) — or, at the cap, pushed
  // back *before* the mirror moves.
  const bool saving = form.contains("docContents") || form.contains("delta");
  const bool cut_off = saving && offline_active(doc_id) && !try_flush(doc_id);
  if (cut_off && offline_queued(doc_id) >= config_.offline.max_queued_edits) {
    ++counters_.offline_backpressure;
    return offline_backpressure_response();
  }

  if (const auto contents = form.get("docContents")) {
    // try_flush may have swapped the session (dedupe/rebase adopt the
    // server's container) — re-resolve before touching the mirror.
    DocumentSession& live = sessions_.find(doc_id)->second;
    Update u;
    u.full_save = true;
    // An empty mirror may stand for a document the server holds as ""
    // (fresh from create): there is nothing to anchor on.
    std::string mirror_plain;
    if (config_.delta_full_saves) mirror_plain = live.plaintext();
    if (!mirror_plain.empty()) {
      // The paper's cdelta as the save. encrypt_full re-randomises every
      // block, so the new container is derived *incrementally* (transform
      // of the plaintext diff) for the unedited blocks to stay
      // byte-identical with what the server holds — the cdelta applied to
      // the old container IS the new one. Our ciphertext mirror tracks the
      // server's copy exactly (the journal's checksum machinery depends on
      // that already), so it is the anchor; if the server diverged anyway
      // it answers 412 and send_update resends the plain full save.
      try {
        const std::string anchor = delta::base_anchor(live.container());
        const delta::Delta cdelta =
            live.transform_delta(delta::myers_diff(mirror_plain, *contents));
        u.container = live.container();
        std::string wire = cdelta.to_wire();
        if (wire.size() < u.container.size()) {
          form.remove("docContents");
          form.set("delta", std::move(wire));
          form.set("dbase", anchor);
        }
      } catch (const Error&) {
        u.container.clear();  // derivation refused; re-encrypt from scratch
      }
    }
    if (u.container.empty()) u.container = live.encrypt_full(*contents);
    if (!form.contains("dbase")) form.set("docContents", u.container);
    u.form = std::move(form);
    net::HttpResponse resp = send_update(doc_id, request.target, u);
    ++counters_.full_saves_encrypted;
    blank_ack_fields(resp);
    return resp;
  }

  if (const auto delta_wire = form.get("delta")) {
    DocumentSession& live = sessions_.find(doc_id)->second;
    Update u;
    u.plain = delta::Delta::parse(*delta_wire);
    if (config_.rediff) {
      // Don't trust the client's op sequence: recompute a minimal delta
      // between the two document versions (§VI-B countermeasure).
      const std::string before = live.plaintext();
      u.plain = delta::myers_diff(before, u.plain.apply(before));
    }
    // The pre-edit plaintext is the rebase's diff base — after a
    // collaborative 409 or an audit-chain 412 (a peer committed first) —
    // and the offline queue's base should this send flip the doc offline.
    // Both are rare, so only the edit's O(edit) inverse is kept; they
    // rebuild the base from it.
    u.undo = live.inverse(u.plain);
    u.cipher = live.transform_delta(u.plain);
    form.set("delta", u.cipher.to_wire());
    u.form = std::move(form);
    bool rebased = false;
    u.rebuild = [&](const FormData& rejection) {
      // Adopt the server's (decrypted) state, transform our edit over the
      // other writers' net effect (they committed first, they win insert
      // ties), and retry at the fresh revision.
      DocumentSession fresh = DocumentSession::open(
          config_.password, *rejection.get("contentFromServer"),
          config_.rng_factory);
      const std::string server_plain = fresh.plaintext();
      const std::string base =
          u.undo.apply(sessions_.find(doc_id)->second.plaintext());
      u.plain = delta::Delta::transform(
          u.plain, delta::myers_diff(base, server_plain), /*a_wins=*/false);
      u.undo = u.plain.invert(server_plain);
      u.cipher = fresh.transform_delta(u.plain);
      sessions_.erase(doc_id);
      sessions_.emplace(doc_id, std::move(fresh));
      u.form.set("delta", u.cipher.to_wire());
      u.form.set("rev", *rejection.get("rev"));
      // Offline mode re-substitutes the rev field from server_rev_.
      if (config_.offline.enabled) {
        server_rev_[doc_id] = parse_rev(rejection.get("rev"));
      }
      if (rejection.contains("conflict")) ++counters_.rebases;
      rebased = true;
      return true;
    };
    net::HttpResponse resp = send_update(doc_id, request.target, u);
    ++counters_.deltas_transformed;
    if (resp.ok() && rebased) {
      // Tell the client about the merged state in terms it can verify:
      // plaintext content plus a matching hash. It adopts both.
      const std::string merged = sessions_.find(doc_id)->second.plaintext();
      FormData ack = FormData::parse(resp.body);
      ack.set("contentFromServer", merged);
      ack.set("contentFromServerHash", crypto::content_hash16(merged));
      resp.body = ack.encode();
      return resp;
    }
    blank_ack_fields(resp);
    return resp;
  }

  // Anything else (spellcheck, export, future surprises) would carry or
  // fetch plaintext — drop it (Fig 2: "drop all unknown requests").
  return blocked("unrecognised request for encrypted document");
}

std::optional<std::string> GDocsMediator::managed_plaintext(
    const std::string& doc_id) const {
  const auto it = sessions_.find(doc_id);
  if (it == sessions_.end()) return std::nullopt;
  return it->second.plaintext();
}

std::optional<std::string> GDocsMediator::managed_ciphertext(
    const std::string& doc_id) const {
  const auto it = sessions_.find(doc_id);
  if (it == sessions_.end()) return std::nullopt;
  return it->second.scheme().ciphertext_doc();
}

const DocumentSession* GDocsMediator::session(const std::string& doc_id) const {
  const auto it = sessions_.find(doc_id);
  return it == sessions_.end() ? nullptr : &it->second;
}

std::optional<enc::SchemeStats> GDocsMediator::managed_stats(
    const std::string& doc_id) const {
  const auto it = sessions_.find(doc_id);
  if (it == sessions_.end()) return std::nullopt;
  return it->second.scheme().stats();
}

// --------------------------------------------------------------- Bespin

BespinMediator::BespinMediator(net::Channel* upstream, MediatorConfig config)
    : upstream_(upstream), config_(std::move(config)) {
  if (upstream_ == nullptr) {
    throw Error(ErrorCode::kInvalidArgument, "BespinMediator: null upstream");
  }
}

net::HttpResponse BespinMediator::round_trip(const net::HttpRequest& request) {
  const std::string path = request.path();
  if (path.rfind(kBespinPrefix, 0) != 0) {
    ++blocked_;
    return net::HttpResponse::make(
        403, "blocked by private-editing extension: unknown endpoint");
  }
  const std::string file = path.substr(kBespinPrefix.size());

  if (request.method == "PUT") {
    auto it = sessions_.find(file);
    if (it == sessions_.end()) {
      it = sessions_
               .emplace(file, DocumentSession::create_new(
                                  config_.password, config_.scheme,
                                  config_.rng_factory))
               .first;
    }
    net::HttpRequest encrypted = request;
    encrypted.body = it->second.encrypt_full(request.body);
    return upstream_->round_trip(encrypted);
  }

  if (request.method == "GET") {
    net::HttpResponse resp = upstream_->round_trip(request);
    if (!resp.ok() || resp.body.empty()) return resp;
    DocumentSession session = DocumentSession::open(
        config_.password, resp.body, config_.rng_factory);
    resp.body = session.plaintext();
    sessions_.erase(file);
    sessions_.emplace(file, std::move(session));
    return resp;
  }

  ++blocked_;
  return net::HttpResponse::make(
      403, "blocked by private-editing extension: unsupported method");
}

// ------------------------------------------------------------- Buzzword

BuzzwordMediator::BuzzwordMediator(net::Channel* upstream,
                                   MediatorConfig config)
    : upstream_(upstream), config_(std::move(config)) {
  if (upstream_ == nullptr) {
    throw Error(ErrorCode::kInvalidArgument, "BuzzwordMediator: null upstream");
  }
}

net::HttpResponse BuzzwordMediator::round_trip(
    const net::HttpRequest& request) {
  const std::string path = request.path();
  if (path.rfind(kBuzzwordPrefix, 0) != 0) {
    ++blocked_;
    return net::HttpResponse::make(
        403, "blocked by private-editing extension: unknown endpoint");
  }

  if (request.method == "POST") {
    // Encrypt the text embedded in <textRun> tags (§III); every run is an
    // independent ciphertext container under the same password.
    net::HttpRequest encrypted = request;
    encrypted.body = cloud::rewrite_text_runs(
        request.body, [this](const std::string& text) {
          DocumentSession session = DocumentSession::create_new(
              config_.password, config_.scheme, config_.rng_factory);
          return session.encrypt_full(text);
        });
    return upstream_->round_trip(encrypted);
  }

  if (request.method == "GET") {
    net::HttpResponse resp = upstream_->round_trip(request);
    if (!resp.ok()) return resp;
    resp.body = cloud::rewrite_text_runs(
        resp.body, [this](const std::string& text) {
          if (text.empty()) return text;
          DocumentSession session = DocumentSession::open(
              config_.password, text, config_.rng_factory);
          return session.plaintext();
        });
    return resp;
  }

  ++blocked_;
  return net::HttpResponse::make(
      403, "blocked by private-editing extension: unsupported method");
}

}  // namespace privedit::extension
