#include "privedit/extension/replication.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "privedit/delta/block_diff.hpp"
#include "privedit/extension/session.hpp"
#include "privedit/net/breaker.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::extension {

double ReplicaHealth::score() const {
  // Error rate dominates: a replica failing half its requests is worse
  // than any merely-slow one. Latency contributes in 10 ms steps — coarse
  // enough that micro-jitter between healthy replicas never reshuffles the
  // read order, fine enough to demote a browned-out (50 ms+) replica.
  return ewma_error * 100.0 + std::floor(ewma_latency_us / 10'000.0) * 0.01;
}

ReplicatedChannel::ReplicatedChannel(std::vector<net::Channel*> replicas,
                                     Validator read_validator,
                                     ReplicationConfig config,
                                     net::SimClock* clock)
    : replicas_(std::move(replicas)),
      read_validator_(std::move(read_validator)),
      config_(config),
      clock_(clock),
      health_(replicas_.size()) {
  if (replicas_.empty()) {
    throw Error(ErrorCode::kInvalidArgument,
                "ReplicatedChannel: need at least one replica");
  }
  for (net::Channel* replica : replicas_) {
    if (replica == nullptr) {
      throw Error(ErrorCode::kInvalidArgument,
                  "ReplicatedChannel: null replica");
    }
  }
}

std::uint64_t ReplicatedChannel::now_us() const {
  return clock_ != nullptr ? clock_->now_us() : net::now_steady_us();
}

void ReplicatedChannel::record_outcome(std::size_t replica, bool ok,
                                       std::uint64_t latency_us) {
  ReplicaHealth& h = health_[replica];
  const double a = config_.health_alpha;
  h.ewma_error = (1.0 - a) * h.ewma_error + (ok ? 0.0 : a);
  if (ok) {
    ++h.successes;
    h.ewma_latency_us =
        h.successes == 1 ? static_cast<double>(latency_us)
                         : (1.0 - a) * h.ewma_latency_us +
                               a * static_cast<double>(latency_us);
    h.latency.record(latency_us);
    if (h.quarantined) {
      // Probation passed: the replica is back in the healthy rotation.
      h.quarantined = false;
    }
    return;
  }
  ++h.failures;
  if (h.quarantined) {
    // Failed its probation (or failed as a last resort): restart the
    // quarantine clock — this is the damping that stops a flapping
    // replica from whipsawing the read order.
    h.quarantined_at_us = now_us();
    return;
  }
  if (h.successes + h.failures >= config_.health_min_samples &&
      h.ewma_error >= config_.quarantine_error_rate) {
    h.quarantined = true;
    h.quarantined_at_us = now_us();
    ++h.quarantine_trips;
    ++counters_.quarantines;
  }
}

std::vector<std::size_t> ReplicatedChannel::read_order() const {
  const std::uint64_t now = now_us();
  std::vector<std::size_t> healthy;
  std::vector<std::size_t> probation;
  std::vector<std::size_t> benched;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const ReplicaHealth& h = health_[i];
    if (!h.quarantined) {
      healthy.push_back(i);
    } else if (now - h.quarantined_at_us >= config_.probation_us) {
      probation.push_back(i);
    } else {
      benched.push_back(i);
    }
  }
  const auto by_score = [this](std::size_t a, std::size_t b) {
    const double sa = health_[a].score();
    const double sb = health_[b].score();
    return sa != sb ? sa < sb : a < b;  // deterministic tie-break
  };
  std::sort(healthy.begin(), healthy.end(), by_score);
  std::sort(probation.begin(), probation.end(), by_score);
  std::sort(benched.begin(), benched.end(), by_score);
  std::vector<std::size_t> order = std::move(healthy);
  order.insert(order.end(), probation.begin(), probation.end());
  // Still-quarantined replicas stay reachable as a last resort:
  // availability beats the score when nothing else answers.
  order.insert(order.end(), benched.begin(), benched.end());
  return order;
}

bool ReplicatedChannel::is_read(const net::HttpRequest& request) {
  if (request.method == "GET") return true;
  if (request.method == "POST") {
    const FormData form = FormData::parse(request.body);
    const auto cmd = form.get("cmd");
    return cmd == "open" || cmd == "export";
  }
  return false;
}

std::size_t ReplicatedChannel::quorum() const {
  const std::size_t n = replicas_.size();
  if (config_.write_quorum == 0) return n / 2 + 1;
  return std::min(config_.write_quorum, n);
}

void ReplicatedChannel::note_lag(
    const std::string& target, const std::vector<std::size_t>& replica_indices) {
  auto& lag = lagging_[target];
  for (const std::size_t idx : replica_indices) {
    // Replenish the budget on a fresh miss, but never mid-decay: a replica
    // that keeps failing the same document must eventually be given up on.
    if (lag.find(idx) == lag.end()) lag[idx] = config_.repair_budget;
  }
}

SyncAuditAttachment audit_from_reply(const FormData& reply) {
  SyncAuditAttachment audit;
  audit.chain = reply.get("achain").value_or("");
  for (const auto& [key, value] : reply.fields()) {
    if (key == "w") audit.witnesses.push_back(value);
  }
  return audit;
}

std::optional<ReplicatedChannel::Authoritative>
ReplicatedChannel::fetch_authoritative(const std::string& target,
                                       const std::map<std::size_t, int>& lag) {
  FormData form;
  form.add("cmd", "open");
  form.add("session", "anti-entropy");
  const net::HttpRequest open =
      net::HttpRequest::post_form(target, form.encode());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (lag.count(i) != 0) continue;  // a laggard cannot be authoritative
    try {
      net::HttpResponse resp = replicas_[i]->round_trip(open);
      if (!resp.ok()) continue;
      if (read_validator_ && !read_validator_(resp)) continue;
      const FormData reply = FormData::parse(resp.body);
      const std::string content = reply.get("content").value_or("");
      if (content.empty()) continue;  // nothing verified to propagate
      return Authoritative{content, reply.get("rev").value_or("0"),
                           audit_from_reply(reply)};
    } catch (const Error&) {
      // try the next replica
    }
  }
  return std::nullopt;
}

namespace {

net::HttpRequest sync_form(const std::string& target, FormData form,
                           const std::string& rev,
                           const SyncAuditAttachment* audit) {
  form.add("cmd", "sync");
  form.add("session", "anti-entropy");
  form.add("rev", rev);
  if (audit != nullptr) {
    if (!audit->chain.empty()) form.add("achain", audit->chain);
    for (const std::string& wire : audit->witnesses) form.add("w", wire);
  }
  return net::HttpRequest::post_form(target, form.encode());
}

}  // namespace

bool push_sync_over(net::Channel& channel, const std::string& target,
                    const std::string& content, const std::string& rev,
                    SyncPushStats* stats, const SyncAuditAttachment* audit) {
  SyncPushStats scratch;
  SyncPushStats& s = stats != nullptr ? *stats : scratch;

  // Probe the replica's block digests. Anything short of a well-formed
  // digest reply — no probe support, quarantined (its digests describe
  // rot, and quarantine only lifts for a full validated container),
  // document absent, malformed fields — selects the full push.
  FormData delta_push;
  std::size_t delta_bytes = 0;
  try {
    FormData probe;
    probe.add("cmd", "sync");
    probe.add("digests", "1");
    probe.add("session", "anti-entropy");
    const net::HttpResponse resp = channel.round_trip(
        net::HttpRequest::post_form(target, probe.encode()));
    ++s.probes;
    const FormData reply = FormData::parse(resp.body);
    const auto digests = reply.get("digests");
    const auto base = reply.get("base");
    if (resp.ok() && digests && base && !reply.contains("missing") &&
        !reply.contains("quarantined")) {
      // The anchor is "<size>:<crc32>"; stoull reads the size.
      const std::string wire =
          delta::block_diff_from_digests(
              delta::block_digests_from_wire(*digests), std::stoull(*base),
              content,
              static_cast<std::size_t>(
                  std::stoull(reply.get("bs").value_or(""))))
              .to_wire();
      const std::string dtarget = delta::base_anchor(content);
      delta_bytes = wire.size() + base->size() + dtarget.size();
      // The delta only rides when it actually saves bytes; an unrelated
      // container (nothing shared) encodes as one big insert and loses.
      if (delta_bytes < content.size()) {
        delta_push.add("delta", wire);
        delta_push.add("dbase", *base);
        delta_push.add("dtarget", dtarget);
      }
    }
  } catch (const Error&) {
  } catch (const std::exception&) {
    // std::stoull rejecting a field — treat like any malformed probe reply.
  }

  if (delta_push.contains("delta")) {
    try {
      const net::HttpResponse resp =
          channel.round_trip(sync_form(target, delta_push, rev, audit));
      if (resp.ok()) {
        ++s.delta_pushes;
        s.bytes_delta += delta_bytes;
        return true;
      }
    } catch (const Error&) {
    }
    // 412 (the replica's copy moved between probe and push, or the result
    // missed the donor's anchor) or a transport fault: the full-content
    // push below is the always-correct fallback.
    ++s.fallbacks;
  }

  try {
    FormData full;
    full.add("content", content);
    const net::HttpResponse resp =
        channel.round_trip(sync_form(target, std::move(full), rev, audit));
    if (resp.ok()) {
      ++s.full_pushes;
      s.bytes_full += content.size();
      return true;
    }
  } catch (const Error&) {
  }
  return false;
}

bool ReplicatedChannel::push_sync(net::Channel* replica,
                                  const std::string& target,
                                  const std::string& content,
                                  const std::string& rev,
                                  const SyncAuditAttachment& audit) {
  ++counters_.repairs_attempted;
  if (push_sync_over(*replica, target, content, rev, &sync_stats_,
                     audit.empty() ? nullptr : &audit)) {
    ++counters_.repairs_succeeded;
    return true;
  }
  return false;
}

void ReplicatedChannel::push_to_laggards(const std::string& target,
                                         const std::string& content,
                                         const std::string& rev,
                                         const SyncAuditAttachment& audit) {
  const auto lag_it = lagging_.find(target);
  if (lag_it == lagging_.end()) return;
  auto& lag = lag_it->second;
  for (auto it = lag.begin(); it != lag.end();) {
    if (it->second <= 0) {
      ++it;  // budget exhausted; repair_all() replenishes
      continue;
    }
    --it->second;
    if (push_sync(replicas_[it->first], target, content, rev, audit)) {
      it = lag.erase(it);
    } else {
      ++it;
    }
  }
  if (lag.empty()) lagging_.erase(lag_it);
}

void ReplicatedChannel::repair_target(const std::string& target) {
  const auto lag_it = lagging_.find(target);
  if (lag_it == lagging_.end()) return;
  const auto authoritative = fetch_authoritative(target, lag_it->second);
  if (!authoritative) return;  // nothing verified to push — try again later
  push_to_laggards(target, authoritative->content, authoritative->rev,
                   authoritative->audit);
}

std::size_t ReplicatedChannel::repair_all() {
  const std::size_t before = counters_.repairs_succeeded;
  std::vector<std::string> targets;
  targets.reserve(lagging_.size());
  for (auto& [target, lag] : lagging_) {
    targets.push_back(target);
    for (auto& [idx, budget] : lag) budget = config_.repair_budget;
  }
  for (const std::string& target : targets) repair_target(target);
  return counters_.repairs_succeeded - before;
}

net::HttpResponse ReplicatedChannel::round_trip(
    const net::HttpRequest& request) {
  if (is_read(request)) {
    ++counters_.reads;
    net::HttpResponse last = net::HttpResponse::make(500, "no replica");
    std::vector<std::size_t> failed;
    const std::vector<std::size_t> order = read_order();
    if (!order.empty() && order.front() != 0) ++counters_.health_reorders;
    for (const std::size_t i : order) {
      if (health_[i].quarantined) ++counters_.probations;
      const std::uint64_t start = now_us();
      try {
        net::HttpResponse resp = replicas_[i]->round_trip(request);
        if (resp.ok() && (!read_validator_ || read_validator_(resp))) {
          record_outcome(i, true, now_us() - start);
          if (!failed.empty()) {
            // The skipped replicas served nothing usable for this
            // document: remember them and (optionally) heal them from the
            // validated winner right away. An empty winner is never
            // propagated — it must not wipe a healthier replica.
            note_lag(request.target, failed);
            const FormData reply = FormData::parse(resp.body);
            const std::string content = reply.get("content").value_or("");
            if (config_.auto_repair && !content.empty()) {
              push_to_laggards(request.target, content,
                               reply.get("rev").value_or("0"),
                               audit_from_reply(reply));
            }
          }
          return resp;
        }
        last = std::move(resp);
      } catch (const Error&) {
        // fall through to the next replica
      }
      record_outcome(i, false, 0);
      failed.push_back(i);
      ++counters_.read_failovers;
    }
    if (last.ok()) {
      // Every replica answered but none validated — surface it loudly.
      return net::HttpResponse::make(
          502, "replication: no replica returned verifiable content");
    }
    return last;
  }

  // Write path: broadcast, quorum-gated.
  ++counters_.writes_broadcast;
  const std::size_t n = replicas_.size();
  const std::size_t needed = quorum();
  net::HttpResponse first_ok = net::HttpResponse::make(500, "no replica");
  bool have_ok = false;
  std::size_t acks = 0;
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t start = now_us();
    try {
      net::HttpResponse resp = replicas_[i]->round_trip(request);
      if (resp.ok()) {
        record_outcome(i, true, now_us() - start);
        ++acks;
        if (!have_ok) {
          first_ok = std::move(resp);
          have_ok = true;
        }
      } else {
        record_outcome(i, false, 0);
        ++counters_.write_replica_failures;
        failed.push_back(i);
      }
    } catch (const Error&) {
      record_outcome(i, false, 0);
      ++counters_.write_replica_failures;
      failed.push_back(i);
    }
  }
  if (!failed.empty()) note_lag(request.target, failed);
  if (acks < needed) {
    // Below quorum the write is reported as failed even though some
    // replicas may have applied it; the repair pass reconverges them on
    // whatever a healthy replica serves next.
    ++counters_.quorum_failures;
    return net::HttpResponse::make(
        502, "replication: write acknowledged by " + std::to_string(acks) +
                 " of " + std::to_string(n) + " replicas, quorum " +
                 std::to_string(needed));
  }
  if (acks < n) {
    ++counters_.partial_writes;
    if (config_.auto_repair) repair_target(request.target);
  }
  first_ok.headers.set("X-Replication-Acks",
                       std::to_string(acks) + "/" + std::to_string(n));
  return first_ok;
}

ReplicatedChannel::Validator gdocs_open_validator(std::string password) {
  return [password = std::move(password)](const net::HttpResponse& resp) {
    const FormData form = FormData::parse(resp.body);
    const auto content = form.get("content");
    if (!content || content->empty()) {
      return true;  // nothing to verify (new/empty document)
    }
    try {
      // Decrypt-and-verify is the acceptance test; the throwaway RNG is
      // never used for reading.
      DocumentSession::open(password, *content, seeded_rng_factory(0));
      return true;
    } catch (const Error&) {
      return false;
    }
  };
}

}  // namespace privedit::extension
