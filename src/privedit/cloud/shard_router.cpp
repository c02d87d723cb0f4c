#include "privedit/cloud/shard_router.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "privedit/crypto/sha256.hpp"
#include "privedit/net/retry.hpp"
#include "privedit/util/bytes.hpp"
#include "privedit/util/crashpoint.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::cloud {
namespace {

std::uint64_t ring_point(const std::string& label) {
  const Bytes digest = crypto::Sha256::hash(as_bytes(label));
  return load_u64be(ByteView(digest.data(), 8));
}

std::vector<std::string> split_ids(const std::string& joined) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= joined.size()) {
    const std::size_t comma = joined.find(',', start);
    const std::size_t end = comma == std::string::npos ? joined.size() : comma;
    if (end > start) out.push_back(joined.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

// ----- HashRing -----

HashRing::HashRing(std::size_t vnodes) : vnodes_(vnodes == 0 ? 1 : vnodes) {}

void HashRing::add(const std::string& shard_id) {
  if (!members_.insert(shard_id).second) return;
  for (std::size_t k = 0; k < vnodes_; ++k) {
    ring_.emplace(ring_point(shard_id + "#" + std::to_string(k)), shard_id);
  }
}

void HashRing::remove(const std::string& shard_id) {
  if (members_.erase(shard_id) == 0) return;
  for (auto it = ring_.begin(); it != ring_.end();) {
    it = it->second == shard_id ? ring_.erase(it) : std::next(it);
  }
}

bool HashRing::contains(const std::string& shard_id) const {
  return members_.contains(shard_id);
}

const std::string& HashRing::owner(const std::string& key) const {
  if (ring_.empty()) {
    throw Error(ErrorCode::kState, "HashRing: empty ring");
  }
  auto it = ring_.lower_bound(ring_point(key));
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

std::vector<std::string> HashRing::members() const {
  return {members_.begin(), members_.end()};
}

// ----- ShardRouter -----

ShardRouter::ShardRouter(std::vector<std::string> shard_ids,
                         ShardRouterConfig config)
    : config_(std::move(config)), ring_(config_.vnodes) {
  if (!config_.data_dir.empty()) {
    std::filesystem::create_directories(config_.data_dir);
    meta_store_ = std::make_unique<FileStore>(config_.data_dir + "/meta");
    tenants_.enable_persistence(config_.data_dir + "/tenants");
    // A persisted membership record reflects the last committed cutover
    // and overrides whatever the caller passed: after a crash the ring is
    // whatever was durably agreed, not what the restart script believes.
    try {
      if (const auto record = meta_store_->get("members")) {
        membership_generation_ = record->rev;
        shard_ids = split_ids(record->content);
      }
    } catch (const Error&) {
      // Unreadable membership record: fall back to the caller's list.
    }
  }
  if (shard_ids.empty()) {
    throw Error(ErrorCode::kInvalidArgument, "ShardRouter: no shards");
  }
  for (const std::string& id : shard_ids) {
    if (shards_.contains(id)) continue;
    auto shard = std::make_shared<Shard>();
    shard->id = id;
    shard->server = make_server(id);
    ring_.add(id);
    shards_.emplace(id, std::move(shard));
  }
  if (meta_store_ != nullptr) {
    recover();
    if (membership_generation_ == 0) persist_membership();
  }
}

std::string ShardRouter::shard_dir(const std::string& shard_id) const {
  return config_.data_dir + "/shard-" + shard_id;
}

std::unique_ptr<GDocsServer> ShardRouter::make_server(
    const std::string& shard_id) {
  auto server = std::make_unique<GDocsServer>();
  server->set_strict_revisions(config_.strict_revisions);
  if (config_.history_limit > 0) {
    server->set_history_limit(config_.history_limit);
  }
  if (!config_.data_dir.empty()) {
    server->enable_persistence(shard_dir(shard_id));
  }
  if (config_.admission.has_value()) {
    server->enable_admission(*config_.admission, config_.admission_now);
  }
  if (config_.scrub.has_value()) {
    server->enable_scrub(*config_.scrub);
  }
  return server;
}

void ShardRouter::persist_membership() {
  if (meta_store_ == nullptr) return;
  std::string joined;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    for (const std::string& id : ring_.members()) {
      if (!joined.empty()) joined.push_back(',');
      joined += id;
    }
  }
  meta_store_->put("members", Store::Record{joined, ++membership_generation_});
}

void ShardRouter::push_doc(Shard& dst, const std::string& doc_id,
                           const std::string& content, std::uint64_t rev,
                           const std::string& achain,
                           const std::vector<std::string>& witness_wires) {
  FormData form;
  form.add("cmd", "sync");
  form.add("rev", std::to_string(rev));
  form.add("content", content);
  if (!achain.empty()) form.add("achain", achain);
  for (const std::string& wire : witness_wires) form.add("w", wire);
  net::HttpRequest push = net::HttpRequest::post_form(
      "/Doc?docID=" + percent_encode(doc_id), form.encode());
  // Migration pushes are the router's own repair traffic, not client load:
  // mark them like breaker probes so a shard's admission bucket cannot
  // reject its own rebalance.
  push.headers.set(net::kProbeHeader, "1");
  dst.server->handle(push);
}

void ShardRouter::recover() {
  namespace fs = std::filesystem;
  if (config_.data_dir.empty()) return;
  // Pass 1: stray shard directories — a shard that was drained out of the
  // membership (or copied into before a crash aborted its join). Whatever
  // documents they hold are adopted by the ring owner when strictly newer
  // or missing there (writes are blocked during handoff, so revisions
  // cannot diverge — "newer" only happens when the copy step died between
  // persisting destination and cutover in a drain), then dropped.
  for (const auto& entry : fs::directory_iterator(config_.data_dir)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard-", 0) != 0) continue;
    const std::string id = name.substr(6);
    if (shards_.contains(id)) continue;
    FileStore stray(entry.path().string());
    // The stray's audit sidecar, so adoption carries chains along with
    // content (probed first — FileStore creation would plant the dir).
    std::map<std::string, Store::Record> stray_audit;
    {
      std::error_code ec;
      const fs::path audit_dir = entry.path() / ".audit";
      if (fs::is_directory(audit_dir, ec)) {
        FileStore sidecar(audit_dir.string());
        std::vector<std::string> sidecar_corrupt;
        for (auto& [id, rec] : sidecar.load_all(&sidecar_corrupt)) {
          stray_audit.emplace(id, std::move(rec));
        }
      }
    }
    std::vector<std::string> corrupt;
    for (auto& [doc_id, record] : stray.load_all(&corrupt)) {
      Shard& owner = *shards_.at(ring_.owner(doc_id));
      const auto* held = owner.server->table().find(doc_id);
      if (held == nullptr || held->rev < record.rev) {
        std::string achain;
        std::vector<std::string> witness_wires;
        if (const auto audit_it = stray_audit.find(doc_id);
            audit_it != stray_audit.end()) {
          const FormData audit = FormData::parse(audit_it->second.content);
          achain = audit.get("chain").value_or("");
          for (const auto& [key, value] : audit.fields()) {
            // Sidecar witnesses are stored as client=wire; the sync form
            // wants the bare wire (the receiver re-keys by decoding it).
            if (key != "w") continue;
            const auto eq = value.find('=');
            if (eq != std::string::npos) {
              witness_wires.push_back(value.substr(eq + 1));
            }
          }
        }
        push_doc(owner, doc_id, record.content, record.rev, achain,
                 witness_wires);
        ++counters_.strays_adopted;
      }
      // Only drop the stray once the owner verifiably holds the doc at
      // (at least) its revision: a refused push — quarantine wall, store
      // fault — must leave the stray file in place, because it may be
      // the only durable copy. The next recovery retries.
      const auto* landed = owner.server->table().find(doc_id);
      if (landed == nullptr || landed->rev < record.rev) continue;
      stray.set_quarantined(doc_id, false);
      stray.remove(doc_id);
      ++counters_.strays_dropped;
    }
  }
  // Pass 2: duplicates on member shards — a copy left on the old owner by
  // a crash after cutover but before cleanup. The ring owner's copy wins
  // unless the duplicate is strictly newer.
  for (auto& [id, shard] : shards_) {
    for (const std::string& doc_id : shard->server->table().ids()) {
      const std::string& own = ring_.owner(doc_id);
      if (own == id) continue;
      Shard& owner = *shards_.at(own);
      const auto* dup = shard->server->table().find(doc_id);
      const std::uint64_t dup_rev = dup->rev;
      const auto* held = owner.server->table().find(doc_id);
      if (held == nullptr || held->rev < dup_rev) {
        std::vector<std::string> witness_wires;
        for (const auto& [client, wire] : dup->witnesses) {
          witness_wires.push_back(wire);
        }
        push_doc(owner, doc_id, dup->content, dup_rev, dup->audit_chain,
                 witness_wires);
        ++counters_.strays_adopted;
      }
      // Same landed check as pass 1: never erase the duplicate unless
      // the ring owner holds the doc at its revision — a refused push
      // degrades to a duplicate the next recovery reconciles.
      const auto* landed = owner.server->table().find(doc_id);
      if (landed == nullptr || landed->rev < dup_rev) continue;
      shard->server->table().erase(doc_id);
      ++counters_.strays_dropped;
    }
  }
}

net::HttpResponse ShardRouter::handle(const net::HttpRequest& request) {
  if (request.method != "POST" || request.path() != "/Doc") {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.bad_requests;
    return net::HttpResponse::make(404, "unknown endpoint");
  }
  const auto doc_id = request.query_param("docID");
  if (!doc_id) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.bad_requests;
    return net::HttpResponse::make(400, "missing docID");
  }
  const FormData form = FormData::parse(request.body);
  const auto cmd = form.get("cmd");
  const bool is_write = cmd == "create" || cmd == "sync" || cmd == "delete" ||
                        form.contains("docContents") || form.contains("delta");
  const std::string tenant{
      request.headers.get(net::kClientIdHeader).value_or(kAnonTenant)};

  // Tenant quota admission before any shard work. The OWNER tenant is
  // charged (collaborators write to the owner's document), so projected
  // checks bill whoever already pays for the doc, falling back to the
  // requester for documents nobody owns yet.
  std::optional<net::HttpResponse> refusal;
  if (cmd == "create") {
    refusal = tenants_.check_new_doc(tenant, *doc_id);
  } else if (const auto contents = form.get("docContents")) {
    const std::string bill = tenants_.owner_tenant(*doc_id).value_or(tenant);
    refusal = tenants_.check_projected_bytes(bill, *doc_id, contents->size());
  } else if (cmd == "sync") {
    const std::string pushed = form.get("content").value_or("");
    const auto owner = tenants_.owner_tenant(*doc_id);
    if (!owner.has_value()) {
      // sync creates the document when absent (the server adopts the
      // push wholesale), so an unowned target is a new document and must
      // pass the same doc-count admission as cmd=create — otherwise a
      // tenant at max_docs mints unlimited docs through the sync verb.
      refusal = tenants_.check_new_doc(tenant, *doc_id);
    }
    if (!refusal.has_value()) {
      refusal = tenants_.check_projected_bytes(owner.value_or(tenant),
                                               *doc_id, pushed.size());
    }
  } else if (form.contains("delta")) {
    // The post-delta size is unknowable without applying the delta, so it
    // is admitted optimistically and trued up afterwards; only a tenant
    // already over its byte budget is refused up front.
    const std::string bill = tenants_.owner_tenant(*doc_id).value_or(tenant);
    if (tenants_.over_bytes(bill)) {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.quota_rejections;
      return quota_exceeded_response("byte quota exceeded");
    }
  }
  if (refusal.has_value()) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.quota_rejections;
    return *refusal;
  }

  // Snapshot the owning shard as a shared_ptr: the reference keeps the
  // Shard (and the mutex we are about to take) alive even if a drain
  // erases it from shards_ before this request finishes.
  std::shared_ptr<Shard> shard;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    const std::string& owner_id = ring_.owner(*doc_id);
    // Mid-migration fences: docs in the move plan are between owners,
    // and docs whose ring owner CHANGES with the pending cutover may not
    // even exist yet (a create landing on the old owner would be
    // orphaned — it is in no move plan). Reads keep flowing to the old
    // owner (the ring has not swapped), writes wait it out.
    const bool fenced =
        handoff_.contains(*doc_id) ||
        (next_ring_ != nullptr && next_ring_->owner(*doc_id) != owner_id);
    if (is_write && fenced) {
      {
        std::lock_guard<std::mutex> clock(counters_mu_);
        ++counters_.handoff_rejections;
      }
      return net::overloaded_response(
          config_.handoff_retry_after_s * 1'000'000, "shard handoff");
    }
    shard = shards_.at(owner_id);
  }

  net::HttpResponse resp;
  std::size_t new_bytes = 0;
  bool have_bytes = false;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->down || shard->server == nullptr) {
      std::lock_guard<std::mutex> clock(counters_mu_);
      ++counters_.down_rejections;
      return net::overloaded_response(
          config_.handoff_retry_after_s * 1'000'000, "shard unavailable");
    }
    resp = shard->server->handle(request);
    if (resp.ok() && is_write && cmd != "delete") {
      if (const auto* doc = shard->server->table().find(*doc_id)) {
        new_bytes = doc->content.size();
        have_bytes = true;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.routed;
  }
  // Post-hoc accounting outside the shard lock (TenantAccounts has its
  // own mutex; never hold both).
  if (resp.ok()) {
    if (cmd == "delete") {
      tenants_.release(*doc_id);
    } else if (is_write && have_bytes) {
      const std::string bill = tenants_.owner_tenant(*doc_id).value_or(tenant);
      tenants_.charge(bill, *doc_id, new_bytes);
    }
  }
  return resp;
}

std::vector<std::string> ShardRouter::members() const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  return ring_.members();
}

std::size_t ShardRouter::shard_count() const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  return shards_.size();
}

std::string ShardRouter::shard_for(const std::string& doc_id) const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  return ring_.owner(doc_id);
}

GDocsServer& ShardRouter::shard_server(const std::string& shard_id) {
  std::lock_guard<std::mutex> lock(ring_mu_);
  const auto it = shards_.find(shard_id);
  if (it == shards_.end() || it->second->server == nullptr) {
    throw Error(ErrorCode::kInvalidArgument,
                "ShardRouter: no such shard " + shard_id);
  }
  return *it->second->server;
}

std::vector<std::string> ShardRouter::holders(const std::string& doc_id) const {
  std::vector<std::string> out;
  std::lock_guard<std::mutex> lock(ring_mu_);
  for (const auto& [id, shard] : shards_) {
    std::lock_guard<std::mutex> slock(shard->mu);
    if (shard->server != nullptr &&
        shard->server->table().find(doc_id) != nullptr) {
      out.push_back(id);
    }
  }
  return out;
}

std::optional<std::string> ShardRouter::raw_content(const std::string& doc_id) {
  std::shared_ptr<Shard> shard;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    shard = shards_.at(ring_.owner(doc_id));
  }
  std::lock_guard<std::mutex> lock(shard->mu);
  if (shard->server == nullptr) return std::nullopt;
  return shard->server->raw_content(doc_id);
}

std::size_t ShardRouter::document_count() const {
  std::size_t total = 0;
  std::lock_guard<std::mutex> lock(ring_mu_);
  for (const auto& [id, shard] : shards_) {
    std::lock_guard<std::mutex> slock(shard->mu);
    if (shard->server != nullptr) total += shard->server->document_count();
  }
  return total;
}

void ShardRouter::rebalance_to(const HashRing& next) {
  // Plan: diff current placement against the target ring. Moves capture
  // shard refs under ring_mu_, so the copy/cleanup phases below never
  // touch the shards_ map (migrations are serialised by migrate_mu_,
  // held by our caller, so membership cannot change mid-plan anyway).
  std::vector<Move> moves;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    for (const auto& [id, shard] : shards_) {
      std::lock_guard<std::mutex> slock(shard->mu);
      if (shard->server == nullptr) continue;
      for (const std::string& doc_id : shard->server->table().ids()) {
        const std::string& to = next.owner(doc_id);
        if (to != id) moves.push_back(Move{doc_id, shard, shards_.at(to)});
      }
    }
    for (const Move& m : moves) handoff_.insert(m.doc_id);
    // Also fence docs that are not in the plan but whose ring owner
    // changes with the cutover: a create racing the migration would land
    // on the old owner and be orphaned (no move carries it across).
    next_ring_ = std::make_unique<HashRing>(next);
  }
  CrashPoints::reach("router.migrate.before_copy");

  for (const Move& m : moves) {
    std::string content;
    std::uint64_t rev = 0;
    std::string achain;
    std::vector<std::string> witness_wires;
    bool have = false;
    {
      Shard& src = *m.from;
      std::lock_guard<std::mutex> lock(src.mu);
      if (src.server != nullptr) {
        if (const auto* doc = src.server->table().find(m.doc_id)) {
          content = doc->content;
          rev = doc->rev;
          achain = doc->audit_chain;
          for (const auto& [client, wire] : doc->witnesses) {
            witness_wires.push_back(wire);
          }
          have = true;
        }
      }
    }
    if (have) {
      Shard& dst = *m.to;
      std::lock_guard<std::mutex> lock(dst.mu);
      push_doc(dst, m.doc_id, content, rev, achain, witness_wires);
    }
    CrashPoints::reach("router.migrate.copy");
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.docs_migrated;
    }
  }
  CrashPoints::reach("router.migrate.before_cutover");

  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    ring_ = next;
  }
  persist_membership();
  CrashPoints::reach("router.migrate.after_cutover");

  // Cleanup: drop the source copies — but never before confirming the
  // destination actually holds the doc at the migrated revision, so a
  // failed push (quarantine wall, store error) degrades to a duplicate
  // the next recovery reconciles, not a lost document.
  for (const Move& m : moves) {
    bool landed = false;
    {
      Shard& dst = *m.to;
      std::lock_guard<std::mutex> lock(dst.mu);
      landed = dst.server != nullptr &&
               dst.server->table().find(m.doc_id) != nullptr;
    }
    if (landed) {
      Shard& src = *m.from;
      std::lock_guard<std::mutex> lock(src.mu);
      if (src.server != nullptr) src.server->table().erase(m.doc_id);
    }
    CrashPoints::reach("router.migrate.cleanup");
  }

  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    for (const Move& m : moves) handoff_.erase(m.doc_id);
    next_ring_.reset();
  }
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.migrations;
  }
}

void ShardRouter::add_shard(const std::string& shard_id) {
  std::lock_guard<std::mutex> mig(migrate_mu_);
  HashRing next(config_.vnodes);
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    if (shards_.contains(shard_id)) {
      throw Error(ErrorCode::kInvalidArgument,
                  "ShardRouter: shard already present: " + shard_id);
    }
    next = ring_;
  }
  next.add(shard_id);
  {
    auto shard = std::make_shared<Shard>();
    shard->id = shard_id;
    shard->server = make_server(shard_id);
    std::lock_guard<std::mutex> lock(ring_mu_);
    // Not in ring_ yet: traffic keeps resolving to the old owners until
    // cutover; the new shard only receives migration pushes.
    shards_.emplace(shard_id, std::move(shard));
  }
  rebalance_to(next);
}

void ShardRouter::remove_shard(const std::string& shard_id) {
  std::lock_guard<std::mutex> mig(migrate_mu_);
  HashRing next(config_.vnodes);
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    const auto it = shards_.find(shard_id);
    if (it == shards_.end()) {
      throw Error(ErrorCode::kInvalidArgument,
                  "ShardRouter: no such shard: " + shard_id);
    }
    if (shards_.size() == 1) {
      throw Error(ErrorCode::kState,
                  "ShardRouter: cannot drain the last shard");
    }
    {
      // A crashed shard has nothing in memory to drain from — migrating
      // "its docs" would move nothing, then dropping it from the ring
      // would abandon every document its durable store still holds (and
      // a later restart's stray adoption could resurrect stale copies
      // over re-created docs). Require an explicit restart first.
      std::lock_guard<std::mutex> slock(it->second->mu);
      if (it->second->down || it->second->server == nullptr) {
        throw Error(ErrorCode::kState,
                    "ShardRouter: cannot drain crashed shard " + shard_id +
                        "; restart_shard it first");
      }
    }
    next = ring_;
  }
  next.remove(shard_id);
  rebalance_to(next);
  std::shared_ptr<Shard> removed;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    removed = shards_.at(shard_id);
    shards_.erase(shard_id);
  }
  // In-flight requests that snapshotted this shard before the erase still
  // hold a reference: down it so they answer 503 instead of serving from
  // a server that is no longer part of the service. The drain emptied its
  // table (every doc moved), so nothing durable is dropped here.
  std::lock_guard<std::mutex> lock(removed->mu);
  removed->server.reset();
  removed->down = true;
}

void ShardRouter::crash_shard(const std::string& shard_id) {
  std::shared_ptr<Shard> shard;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    const auto it = shards_.find(shard_id);
    if (it == shards_.end()) {
      throw Error(ErrorCode::kInvalidArgument,
                  "ShardRouter: no such shard: " + shard_id);
    }
    shard = it->second;
  }
  std::lock_guard<std::mutex> lock(shard->mu);
  // Process death: the in-memory table vanishes; only what the shard's
  // FileStore fsync'd survives for restart_shard to reload.
  shard->server.reset();
  shard->down = true;
}

void ShardRouter::restart_shard(const std::string& shard_id) {
  std::shared_ptr<Shard> shard;
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    const auto it = shards_.find(shard_id);
    if (it == shards_.end()) {
      throw Error(ErrorCode::kInvalidArgument,
                  "ShardRouter: no such shard: " + shard_id);
    }
    shard = it->second;
  }
  auto server = make_server(shard_id);
  std::lock_guard<std::mutex> lock(shard->mu);
  shard->server = std::move(server);
  shard->down = false;
}

ShardRouter::Counters ShardRouter::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

}  // namespace privedit::cloud
