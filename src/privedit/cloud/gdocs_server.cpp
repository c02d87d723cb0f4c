#include "privedit/cloud/gdocs_server.hpp"

#include <iterator>
#include <sstream>

#include "privedit/crypto/sha256.hpp"
#include "privedit/delta/block_diff.hpp"
#include "privedit/delta/delta.hpp"
#include "privedit/enc/container.hpp"
#include "privedit/net/breaker.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/hex.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::cloud {
namespace {

constexpr const char* kDictionaryWords[] = {
    "the",  "quick", "brown",  "fox",   "jumps", "over",  "lazy",  "dog",
    "a",    "an",    "and",    "of",    "to",    "in",    "it",    "is",
    "was",  "for",   "on",     "are",   "as",    "with",  "his",   "they",
    "at",   "be",    "this",   "have",  "from",  "or",    "one",   "had",
    "by",   "word",  "but",    "not",   "what",  "all",   "were",  "we",
    "when", "your",  "can",    "said",  "there", "use",   "each",  "which",
    "she",  "do",    "how",    "their", "if",    "will",  "up",    "other",
    "about", "out",  "many",   "then",  "them",  "these", "so",    "some",
    "her",  "would", "make",   "like",  "him",   "into",  "time",  "has",
    "look", "two",   "more",   "write", "go",    "see",   "number", "no",
    "way",  "could", "people", "my",    "than",  "first", "water", "been",
    "call", "who",   "oil",    "its",   "now",   "find",  "long",  "down",
    "day",  "did",   "get",    "come",  "made",  "may",   "part",  "document",
    "editing", "cloud", "service", "private", "secure", "content"};

bool is_word_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '\'';
}

std::string to_lower(std::string_view word) {
  std::string out;
  out.reserve(word.size());
  for (char c : word) {
    out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

/// The anchored-delta apply an anchored save and a delta sync share:
/// nullopt when `dbase` does not name `base` (the sender's picture of our
/// copy is wrong); throws Error when the delta is malformed or runs past
/// the end of `base`.
std::optional<std::string> apply_anchored(std::string_view base,
                                          std::string_view wire,
                                          std::string_view dbase) {
  if (dbase != delta::base_anchor(base)) return std::nullopt;
  return delta::Delta::parse(wire).apply(base);
}

}  // namespace

GDocsServer::GDocsServer() {
  for (const char* w : kDictionaryWords) dictionary_.insert(w);
}

net::HttpResponse GDocsServer::ack(const Document& doc,
                                   std::string_view achain,
                                   bool include_content, int status,
                                   std::string_view flag,
                                   std::string_view value) const {
  // The Ack conveys "the current content to the best of the server's
  // knowledge" (§IV-A). The full content rides along only when the client
  // saved against a stale revision and needs to reconcile; the happy path
  // carries just the hash and the save's one-link chain tail. Rejections
  // (409/412) carry the same fields with the whole chain.
  FormData form;
  if (include_content) {
    form.add("contentFromServer", doc.content);
  }
  form.add("contentFromServerHash", crypto::content_hash16(doc.content));
  form.add("rev", std::to_string(doc.rev));
  if (!achain.empty()) form.add("achain", std::string(achain));
  if (!flag.empty()) form.add(std::string(flag), std::string(value));
  return net::HttpResponse::make(status, form.encode(),
                                 "application/x-www-form-urlencoded");
}

net::HttpResponse GDocsServer::chain_reject(const Document& doc) {
  // The save's audit link does not commit the revision this save would
  // produce — another writer advanced the chain (or the client is stale).
  // 412 + areason=chain + the current content, rev and chain: everything
  // the client needs to verify, fast-forward its auditor and re-stage,
  // without an extra round trip.
  ++counters_.chain_rejections;
  return ack(doc, doc.audit_chain, /*include_content=*/true, 412, "areason",
             "chain");
}

// Ordering contract: every save path persists the audit sidecar (this
// function) BEFORE the document record. The two puts are individually
// atomic but not jointly, so a crash between them must leave the chain
// *ahead* of the record — DocTable::attach_audit_store trims the orphan
// tip link at restore and the client's journal replay re-lands the save.
// The reverse order would leave an acknowledged-looking revision with no
// chain link, which honest clients cannot distinguish from a fork.
std::string GDocsServer::store_link(const std::string& doc_id, Document& doc,
                                    const enc::AuditLink& link,
                                    const FormData& form) {
  if (doc.audit_chain.empty()) {
    enc::AuditChain root;
    const auto abase = form.get("abase");
    if (!abase) return {};  // nothing verifiable to root a chain at
    try {
      root.base_head = hex_decode(*abase);
    } catch (const Error&) {
      return {};
    }
    if (root.base_head.size() != crypto::Sha256::kDigestSize) return {};
    root.base_rev = link.rev - 1;
    if (const auto abaserev = form.get("abaserev")) {
      try {
        root.base_rev = std::stoull(*abaserev);
      } catch (...) {
      }
    }
    doc.set_audit_chain(&root);
  }
  std::string tail =
      enc::append_link(doc.audit_chain, doc.audit_links, link, kAuditChainCap);
  table_.persist_audit(doc_id, doc);
  return tail;
}

net::HttpResponse GDocsServer::commit(
    const std::string& doc_id, Document& doc, std::string next,
    const std::optional<enc::AuditLink>& alink, const FormData& form,
    bool stale, std::string_view flag) {
  table_.record_history(doc);
  doc.content = std::move(next);
  ++doc.rev;
  // Chain sidecar before document record — see store_link's ordering
  // contract.
  const std::string tail =
      alink ? store_link(doc_id, doc, *alink, form) : std::string();
  table_.persist(doc_id, doc);
  // A save against a stale revision carries the content back so the
  // client can reconcile.
  return ack(doc, tail, stale, 200, flag, "1");
}

void GDocsServer::adopt_sync_audit(const std::string& doc_id, Document& doc,
                                   const FormData& form) {
  bool dirty = false;
  if (const auto pushed = form.get("achain");
      pushed && *pushed != doc.audit_chain) {
    std::optional<enc::AuditChain> theirs;
    try {
      theirs = enc::decode_chain(*pushed);
    } catch (const Error&) {
      // An unparseable chain is dropped here; the next save re-roots it.
    }
    if (theirs && !doc.audit_chain.empty()) {
      // Anti-entropy cross-check: where the replicas' chains overlap in
      // revision, the heads must agree. A divergence means this replica
      // pair served different histories for the same revision — the
      // server-side symptom of equivocation. Counted here; the clients
      // hold the key and classify it authoritatively.
      const enc::AuditChain ours = enc::decode_chain(doc.audit_chain);
      bool diverged = false;
      if (const auto head = theirs->head_at(ours.base_rev)) {
        diverged = *head != ours.base_head;
      }
      for (const enc::AuditLink& link : ours.links) {
        if (diverged) break;
        if (const auto head = theirs->head_at(link.rev)) {
          diverged = *head != link.head;
        }
      }
      if (diverged) ++counters_.equivocations_detected;
    }
    doc.set_audit_chain(theirs ? &*theirs : nullptr);
    dirty = true;
  }
  for (const auto& [key, value] : form.fields()) {
    if (key != "w") continue;
    try {
      const enc::AuditWitness w = enc::decode_witness(value);
      std::string& slot = doc.witnesses[w.client];
      if (slot != value) {
        slot = value;
        dirty = true;
      }
    } catch (const Error&) {
    }
  }
  if (dirty) table_.persist_audit(doc_id, doc);
}

void GDocsServer::enable_admission(net::AdmissionConfig config,
                                   std::function<std::uint64_t()> now_us) {
  admission_now_ = now_us ? std::move(now_us)
                          : std::function<std::uint64_t()>(net::now_steady_us);
  admission_ =
      std::make_unique<net::AdmissionController>(config, admission_now_);
}

void GDocsServer::enable_persistence(const std::string& directory) {
  enable_persistence(std::make_unique<FileStore>(directory));
  // Audit sidecar under a subdirectory: invisible to the main store's
  // *.doc walk, so fsck/scrub over the document files is unaffected.
  enable_audit_persistence(std::make_unique<FileStore>(directory + "/.audit"));
}

void GDocsServer::enable_persistence(std::unique_ptr<Store> store) {
  // An unreadable record must not take the provider down, but it must not
  // silently vanish either: quarantine the id (the file stays on disk as
  // repair evidence) and let the replica-repair path heal it via cmd=sync.
  for (const std::string& doc_id : table_.attach_store(std::move(store))) {
    ++counters_.load_quarantined;
    quarantine(doc_id);
  }
}

net::HttpResponse GDocsServer::handle(const net::HttpRequest& request) {
  if (admission_ != nullptr) {
    // Overload check first: a rate-limited client must get its 503 +
    // Retry-After before the server spends any work on the request.
    if (auto refusal = admission_->admit(request, admission_now_())) {
      ++counters_.admission_rejections;
      return *refusal;
    }
  }
  if (scrub_enabled_ && scrub_.interval_requests > 0 &&
      ++requests_since_scrub_ >= scrub_.interval_requests) {
    // Piggybacked background scrubbing: the handler is externally
    // serialised, so stealing a bounded slice of every Nth request is the
    // single-threaded stand-in for a scrubber thread.
    requests_since_scrub_ = 0;
    scrub_step();
  }
  if (request.method != "POST" || request.path() != "/Doc") {
    ++counters_.bad_requests;
    return net::HttpResponse::make(404, "unknown endpoint");
  }
  const auto doc_id = request.query_param("docID");
  if (!doc_id) {
    ++counters_.bad_requests;
    return net::HttpResponse::make(400, "missing docID");
  }
  const FormData form = FormData::parse(request.body);
  const auto cmd = form.get("cmd");

  if (cmd == "create") {
    if (is_quarantined(*doc_id)) {
      ++counters_.quarantine_write_rejections;
      return net::HttpResponse::make(503, "document quarantined");
    }
    ++counters_.creates;
    Document& doc = table_.obtain(*doc_id);
    doc.content.clear();
    doc.rev = 0;
    doc.history.clear();
    // A (re)created document starts a fresh history; the creator may root
    // the audit chain immediately by declaring its genesis head.
    doc.set_audit_chain(nullptr);
    doc.witnesses.clear();
    if (const auto abase = form.get("abase")) {
      try {
        enc::AuditChain chain;
        chain.base_head = hex_decode(*abase);
        if (chain.base_head.size() == crypto::Sha256::kDigestSize) {
          doc.set_audit_chain(&chain);
        }
      } catch (const Error&) {
      }
    }
    table_.persist_audit(*doc_id, doc);
    table_.persist(*doc_id, doc);
    FormData reply;
    reply.add("session", std::to_string(doc.next_session++));
    reply.add("rev", "0");
    return net::HttpResponse::make(201, reply.encode(),
                                   "application/x-www-form-urlencoded");
  }

  if (cmd == "sync") {
    if (form.get("digests") == "1") {
      // Digest probe for differential repair: the pusher matches our block
      // digests against the donor copy and sends a delta anchored on the
      // copy `base` names. A quarantined document answers with the flag
      // alone — its digests describe rot, and quarantine may only be lifted
      // by a full validated container anyway.
      ++counters_.sync_probes;
      FormData reply;
      Document* probed = table_.find(*doc_id);
      if (probed == nullptr) {
        reply.add("missing", "1");
      } else if (is_quarantined(*doc_id)) {
        reply.add("quarantined", "1");
      } else {
        const std::size_t bs = delta::repair_block_size(probed->content.size());
        reply.add("rev", std::to_string(probed->rev));
        reply.add("base", delta::base_anchor(probed->content));
        reply.add("bs", std::to_string(bs));
        reply.add("digests", delta::block_digests_to_wire(
                                 delta::block_digests(probed->content, bs)));
      }
      return net::HttpResponse::make(200, reply.encode(),
                                     "application/x-www-form-urlencoded");
    }

    // Anti-entropy push from a ReplicatedChannel repair pass: adopt the
    // ciphertext + revision wholesale, creating the document if this
    // replica never saw it. Trusting the pushed bytes is fine — the server
    // is untrusted anyway, and integrity is enforced client-side by the
    // crypto (a bogus sync just fails the open validator later).
    std::string pushed;
    if (const auto wire = form.get("delta")) {
      // Differential repair push, anchored both ends: `dbase` names the
      // copy it applies to, `dtarget` the result. Quarantined documents
      // refuse it outright — the only quarantine exit is a full container
      // that passes validation, and a delta against rot would just produce
      // differently-arranged rot.
      if (is_quarantined(*doc_id)) {
        ++counters_.quarantine_write_rejections;
        return net::HttpResponse::make(503, "document quarantined");
      }
      std::optional<std::string> next;
      if (const Document* based = table_.find(*doc_id)) {
        try {
          next = apply_anchored(based->content, *wire,
                                form.get("dbase").value_or(""));
        } catch (const Error&) {
        }
      }
      if (!next || form.get("dtarget") != delta::base_anchor(*next)) {
        // No copy, our copy moved (or rotted) since the probe, or the
        // result misses the donor's anchor (tampering, digest collision):
        // 412 tells the pusher to fall back to a full-content sync.
        ++counters_.anchor_mismatches;
        return net::HttpResponse::make(412, "delta sync anchor mismatch");
      }
      pushed = std::move(*next);
      ++counters_.delta_syncs;
    } else if (const auto content = form.get("content")) {
      pushed = *content;
      if (is_quarantined(*doc_id)) {
        // The one exit from quarantine: a repair push whose payload passes
        // container validation. Anything else keeps the 503 wall up, so a
        // damaged replica cannot "repair" its peers with more damage.
        const bool valid =
            enc::looks_like_container(pushed) &&
            check_record(*doc_id, Store::Record{pushed, 0}, CheckConfig{},
                         nullptr);
        if (!valid) {
          ++counters_.quarantine_write_rejections;
          return net::HttpResponse::make(503, "document quarantined");
        }
        ++counters_.quarantine_repairs;
        unquarantine(*doc_id);
      }
    } else {
      // Neither payload: adopting "" would wipe the copy.
      ++counters_.bad_requests;
      return net::HttpResponse::make(400, "sync without content or delta");
    }
    ++counters_.syncs;
    Document& doc = table_.obtain(*doc_id);
    table_.record_history(doc);
    doc.content = std::move(pushed);
    std::uint64_t rev = doc.rev + 1;
    if (const auto rev_field = form.get("rev")) {
      try {
        rev = std::stoull(*rev_field);
      } catch (...) {
      }
    }
    doc.rev = rev;
    adopt_sync_audit(*doc_id, doc, form);
    table_.persist(*doc_id, doc);
    return ack(doc, doc.audit_chain, /*include_content=*/false);
  }

  if (cmd == "delete") {
    // Quota reclaim / migration cleanup. Deleting a quarantined document
    // is allowed — dropping rot is strictly safer than keeping it — and
    // clears the durable quarantine marker along with the record.
    if (!table_.erase(*doc_id)) {
      ++counters_.bad_requests;
      return net::HttpResponse::make(404, "no such document");
    }
    ++counters_.deletes;
    return net::HttpResponse::make(200, "deleted");
  }

  Document* found = table_.find(*doc_id);
  if (found == nullptr) {
    ++counters_.bad_requests;
    return net::HttpResponse::make(404, "no such document");
  }
  Document& doc = *found;

  if (cmd == "witness") {
    // A client publishing its signed chain-head claim. Stored opaquely,
    // keyed by the client id the witness itself names — the MAC binds the
    // id, so a forger can only clobber slots with records peers will
    // reject as MAC-invalid anyway.
    const auto wire = form.get("w");
    if (!wire) {
      ++counters_.bad_requests;
      return net::HttpResponse::make(400, "missing witness");
    }
    try {
      const enc::AuditWitness w = enc::decode_witness(*wire);
      doc.witnesses[w.client] = *wire;
    } catch (const Error&) {
      ++counters_.bad_requests;
      return net::HttpResponse::make(400, "malformed witness");
    }
    ++counters_.witness_stores;
    table_.persist_audit(*doc_id, doc);
    return net::HttpResponse::make(200, "stored");
  }

  if (cmd == "open") {
    ++counters_.opens;
    FormData reply;
    reply.add("content", doc.content);
    reply.add("rev", std::to_string(doc.rev));
    reply.add("session", std::to_string(doc.next_session++));
    if (!doc.audit_chain.empty()) reply.add("achain", doc.audit_chain);
    for (const auto& [client, wire] : doc.witnesses) reply.add("w", wire);
    net::HttpResponse resp = net::HttpResponse::make(
        200, reply.encode(), "application/x-www-form-urlencoded");
    if (is_quarantined(*doc_id)) {
      // Reads still succeed — client crypto decides whether the bytes are
      // usable — but the damage flag rides along so validators can treat
      // this replica as suspect rather than authoritative.
      resp.headers.set("X-Privedit-Quarantine", "1");
    }
    return resp;
  }

  if (cmd == "spellcheck") {
    ++counters_.spellchecks;
    const std::string text = form.get("text").value_or(doc.content);
    // Tokenise and report unknown words — a feature that fundamentally
    // needs the plaintext (§VII-A lists it among the casualties).
    FormData reply;
    std::string word;
    std::set<std::string> flagged;
    for (std::size_t i = 0; i <= text.size(); ++i) {
      if (i < text.size() && is_word_char(text[i])) {
        word.push_back(text[i]);
      } else if (!word.empty()) {
        const std::string lower = to_lower(word);
        if (dictionary_.find(lower) == dictionary_.end()) {
          flagged.insert(lower);
        }
        word.clear();
      }
    }
    for (const std::string& w : flagged) reply.add("misspelled", w);
    return net::HttpResponse::make(200, reply.encode(),
                                   "application/x-www-form-urlencoded");
  }

  if (cmd == "export") {
    ++counters_.exports;
    net::HttpResponse resp =
        net::HttpResponse::make(200, doc.content, "text/plain");
    if (is_quarantined(*doc_id)) {
      resp.headers.set("X-Privedit-Quarantine", "1");
    }
    return resp;
  }

  if (is_quarantined(*doc_id) &&
      (form.contains("docContents") || form.contains("delta"))) {
    // No edits on top of rot: writes wait for the repair path.
    ++counters_.quarantine_write_rejections;
    return net::HttpResponse::make(503, "document quarantined");
  }

  // Audit link riding along with a save. The server cannot verify the MAC
  // (no key) but enforces the structural contract it can see: the link
  // must commit exactly the revision this save will produce.
  std::optional<enc::AuditLink> alink;
  if (const auto alink_wire = form.get("alink")) {
    try {
      alink = enc::decode_link(*alink_wire);
    } catch (const Error&) {
      ++counters_.bad_requests;
      return net::HttpResponse::make(400, "malformed audit link");
    }
  }
  bool stale = false;
  if (const auto base_rev = form.get("rev")) {
    stale = *base_rev != std::to_string(doc.rev);
  }

  if (const auto contents = form.get("docContents")) {
    if (alink && alink->rev != doc.rev + 1) return chain_reject(doc);
    ++counters_.full_saves;
    return commit(*doc_id, doc, *contents, alink, form, stale);
  }

  if (const auto delta_wire = form.get("delta")) {
    // An anchored delta (dbase=<size>:<crc32>) is a full-state save: the
    // anchor, not the revision, says which container it applies to, so it
    // has no conflict path. An unanchored delta is a keystroke under
    // optimistic concurrency: a stale base revision is applied anyway (the
    // real service merges) but flagged — or, in strict mode, rejected
    // without mutating so the client rebases and retries.
    const auto dbase = form.get("dbase");
    const bool conflict = stale && !dbase;
    if (conflict) {
      ++counters_.conflicts;
      if (strict_revisions_) {
        return ack(doc, doc.audit_chain, true, 409, "conflict", "1");
      }
    }
    // Concurrency (409) outranks the chain check: a client that must
    // rebase will fast-forward its auditor off the conflict body's achain
    // and restage against the *new* tip in one step.
    if (alink && alink->rev != doc.rev + 1) return chain_reject(doc);
    std::optional<std::string> next;
    try {
      next = dbase ? apply_anchored(doc.content, *delta_wire, *dbase)
                   : delta::Delta::parse(*delta_wire).apply(doc.content);
    } catch (const Error&) {
      ++counters_.bad_requests;
      return net::HttpResponse::make(400, "malformed or inapplicable delta");
    }
    if (!next) {
      // The client's picture of our container is wrong — lost write,
      // concurrent save, or tampering. 412 with the ack fields (current
      // hash + rev) tells it to resend as a plain docContents save.
      ++counters_.anchor_mismatches;
      return ack(doc, doc.audit_chain, /*include_content=*/false, 412);
    }
    ++(dbase ? counters_.full_saves : counters_.delta_saves);
    return commit(*doc_id, doc, std::move(*next), alink, form, stale,
                  conflict ? "conflict" : "");
  }

  ++counters_.bad_requests;
  return net::HttpResponse::make(400, "unrecognised command");
}

std::optional<std::string> GDocsServer::raw_content(
    const std::string& doc_id) const {
  const Document* doc = table_.find(doc_id);
  if (doc == nullptr) return std::nullopt;
  return doc->content;
}

void GDocsServer::set_raw_content(const std::string& doc_id,
                                  std::string content) {
  Document* doc = table_.find(doc_id);
  if (doc == nullptr) {
    throw Error(ErrorCode::kInvalidArgument, "GDocsServer: no such document");
  }
  commit(doc_id, *doc, std::move(content), std::nullopt, FormData{},
         /*stale=*/false);
}

const std::vector<std::string>& GDocsServer::history(
    const std::string& doc_id) const {
  static const std::vector<std::string> kEmpty;
  const Document* doc = table_.find(doc_id);
  return doc == nullptr ? kEmpty : doc->history;
}

void GDocsServer::scrub_one(const std::string& doc_id, Document& doc) {
  ++scrub_counters_.docs_scrubbed;
  bool dirty = false;

  if (Store* store = table_.store(); store != nullptr) {
    // While the server runs, its memory is authoritative: any divergence
    // on disk is rot (or a lost/rolled-back write) and is repaired by
    // simply re-persisting — the cheapest repair in the whole subsystem,
    // and the reason scrubbing *online* is worth the request-time slice.
    bool repair = false;
    try {
      const auto record = store->get(doc_id);
      if (!record) {
        ++scrub_counters_.store_mismatches;  // lost directory entry
        repair = true;
      } else if (record->content != doc.content || record->rev != doc.rev) {
        ++scrub_counters_.store_mismatches;
        repair = true;
      }
    } catch (const Error&) {
      ++scrub_counters_.unreadable_records;
      repair = true;
    }
    if (repair) {
      dirty = true;
      try {
        store->put(doc_id, Store::Record{doc.content, doc.rev});
        ++scrub_counters_.repaired_from_memory;
      } catch (const StorageError&) {
        // Disk said no (EIO/ENOSPC); the next cycle retries.
      }
    }
  }

  if (scrub_.verify_container && enc::looks_like_container(doc.content)) {
    CheckConfig config;
    config.max_units = scrub_.max_units;
    // Chain evidence rides along: a chain that no longer describes this
    // document is unverifiable history no client will accept — quarantine
    // until replica repair delivers a coherent (content, chain) pair.
    if (!doc.audit_chain.empty()) config.chains[doc_id] = doc.audit_chain;
    if (!check_record(doc_id, Store::Record{doc.content, doc.rev}, config,
                      nullptr)) {
      // The authoritative copy itself is damaged and this server has no
      // better one — stop serving writes and wait for replica repair.
      dirty = true;
      ++scrub_counters_.container_corrupt;
      if (!is_quarantined(doc_id)) {
        ++scrub_counters_.quarantined;
        quarantine(doc_id);
      }
    }
  }

  if (!dirty) ++scrub_counters_.clean;
}

bool GDocsServer::scrub_step() {
  auto& docs = table_.docs();
  if (!scrub_enabled_ || docs.empty()) return false;
  bool wrapped = false;
  const std::size_t budget =
      scrub_.docs_per_cycle == 0 ? 1 : scrub_.docs_per_cycle;
  for (std::size_t i = 0; i < budget; ++i) {
    auto it = scrub_cursor_.empty() ? docs.begin()
                                    : docs.upper_bound(scrub_cursor_);
    if (it == docs.end()) {
      it = docs.begin();
    }
    scrub_one(it->first, it->second);
    scrub_cursor_ = it->first;
    if (std::next(it) == docs.end()) {
      // Completed a full pass; the next step starts a fresh cycle.
      ++scrub_counters_.cycles;
      scrub_cursor_.clear();
      wrapped = true;
      break;
    }
  }
  return wrapped;
}

}  // namespace privedit::cloud
