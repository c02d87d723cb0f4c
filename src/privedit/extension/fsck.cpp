#include "privedit/extension/fsck.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>

#include "privedit/cloud/gdocs_server.hpp"
#include "privedit/extension/journal.hpp"
#include "privedit/extension/replication.hpp"
#include "privedit/extension/session.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/hex.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::extension {

namespace fs = std::filesystem;

namespace {

/// In-process Channel straight into a server's handler — fsck runs on the
/// operator's machine against local store directories, so there is no
/// transport to simulate.
class DirectChannel final : public net::Channel {
 public:
  explicit DirectChannel(cloud::GDocsServer* server) : server_(server) {}
  net::HttpResponse round_trip(const net::HttpRequest& request) override {
    return server_->handle(request);
  }

 private:
  cloud::GDocsServer* server_;
};

std::string target_for(const std::string& doc_id) {
  return "/Doc?docID=" + percent_encode(doc_id);
}

/// Loads the per-document audit chains from a store's `.audit` sidecar
/// directory, for keyless structural chain checks (kChainBreak). Absent
/// sidecar → no chain evidence; the directory is NOT created, so
/// report-only mode stays mutation-free.
std::map<std::string, std::string> load_audit_chains(const std::string& dir) {
  std::map<std::string, std::string> chains;
  const std::string audit_dir = dir + "/.audit";
  std::error_code ec;
  if (!fs::is_directory(audit_dir, ec)) return chains;
  cloud::FileStore sidecar(audit_dir);
  for (const std::string& id : sidecar.list_doc_ids()) {
    try {
      const auto record = sidecar.get(id);
      if (!record) continue;
      const FormData form = FormData::parse(record->content);
      if (const auto chain = form.get("chain"); chain && !chain->empty()) {
        chains[id] = *chain;
      }
    } catch (const Error&) {
      // An unreadable sidecar record yields no chain evidence; the main
      // record still gets every other check.
    }
  }
  return chains;
}

cloud::CheckConfig make_check_config(const FsckOptions& options,
                                     std::map<std::string, cloud::Anchor> anchors) {
  cloud::CheckConfig config;
  config.anchors = std::move(anchors);
  if (!options.password.empty()) {
    config.deep_validate = [password =
                                options.password](const std::string& content) {
      try {
        DocumentSession::open(password, content, seeded_rng_factory(0));
        return true;
      } catch (const Error&) {
        return false;
      }
    };
  }
  return config;
}

/// Pushes (content, rev) to `channel` through the same delta-aware
/// anti-entropy helper ReplicatedChannel::push_sync uses: an anchored delta
/// when the replica holds a related copy, full content otherwise. The donor's
/// audit chain rides along so the receiver's history stays linkable.
bool push_repair(net::Channel& channel, const std::string& doc_id,
                 const cloud::Store::Record& record,
                 const SyncAuditAttachment& audit, SyncPushStats* stats) {
  return push_sync_over(channel, target_for(doc_id), record.content,
                        std::to_string(record.rev), stats,
                        audit.empty() ? nullptr : &audit);
}

/// Audit attachment for `doc_id` as served by the donor replica's server —
/// an open reply carries achain + witnesses when the sidecar store holds
/// them. Empty (and harmless) when the document predates auditing.
SyncAuditAttachment donor_audit(net::Channel& channel,
                                const std::string& doc_id) {
  FormData form;
  form.add("cmd", "open");
  form.add("session", "anti-entropy");
  try {
    const net::HttpResponse resp = channel.round_trip(
        net::HttpRequest::post_form(target_for(doc_id), form.encode()));
    if (resp.ok()) return audit_from_reply(FormData::parse(resp.body));
  } catch (const Error&) {
  }
  return {};
}

}  // namespace

bool FsckResult::clean_before() const {
  return std::all_of(stores.begin(), stores.end(),
                     [](const FsckStoreReport& s) {
                       return s.before.store_clean();
                     });
}

bool FsckResult::healthy_after() const {
  const std::set<std::string> quarantined(unrecoverable.begin(),
                                          unrecoverable.end());
  for (const FsckStoreReport& s : stores) {
    for (const cloud::Finding& f : s.after.findings) {
      if (!quarantined.contains(f.doc_id)) return false;
    }
  }
  return true;
}

std::map<std::string, cloud::Anchor> load_journal_anchors(
    const std::string& journal_dir) {
  std::map<std::string, cloud::Anchor> anchors;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(journal_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() < 4 || name.substr(name.size() - 4) != ".wal") continue;
    std::string doc_id;
    try {
      doc_id = to_string(hex_decode(name.substr(0, name.size() - 4)));
    } catch (const Error&) {
      continue;  // not one of ours
    }
    try {
      EditJournal journal(entry.path().string());
      if (const auto& acked = journal.last_acked()) {
        anchors[doc_id] = cloud::Anchor{acked->rev, acked->checksum};
      }
    } catch (const Error&) {
      // An unreadable journal yields no anchor; the store still gets its
      // structural checks. The journal's own recovery story is separate.
    }
  }
  if (ec) {
    throw Error(ErrorCode::kState, "fsck: cannot list journal directory " +
                                       journal_dir + ": " + ec.message());
  }
  return anchors;
}

FsckResult run_fsck(const std::vector<std::string>& store_dirs,
                    const FsckOptions& options) {
  if (store_dirs.empty()) {
    throw Error(ErrorCode::kInvalidArgument, "fsck: no store directories");
  }

  FsckResult result;
  const cloud::CheckConfig config = make_check_config(
      options, options.journal_dir.empty()
                   ? std::map<std::string, cloud::Anchor>{}
                   : load_journal_anchors(options.journal_dir));

  // When repairing, boot one server per replica store — exactly what the
  // provider would run — with tolerant persistence: unreadable records are
  // quarantined, stale temps swept, readable state loaded. Report-only
  // mode opens the bare FileStore instead, so --check-only plants no
  // quarantine markers (the tmp sweep is the one documented mutation).
  std::vector<std::unique_ptr<cloud::GDocsServer>> servers;
  std::vector<std::unique_ptr<DirectChannel>> channels;
  std::vector<std::unique_ptr<cloud::FileStore>> bare_stores;
  std::vector<cloud::Store*> stores;
  // Chain evidence is per store (each replica carries its own sidecar).
  std::vector<cloud::CheckConfig> store_configs;
  for (const std::string& dir : store_dirs) {
    FsckStoreReport report;
    report.directory = dir;
    cloud::CheckConfig store_config = config;
    store_config.chains = load_audit_chains(dir);
    auto file_store = std::make_unique<cloud::FileStore>(dir);
    report.orphan_tmps_swept = file_store->tmp_swept();
    if (options.repair) {
      auto server = std::make_unique<cloud::GDocsServer>();
      server->enable_persistence(std::move(file_store));
      // The audit sidecar rides under the store directory; loading it here
      // lets repair pushes carry chains and lets donors serve them.
      server->enable_audit_persistence(
          std::make_unique<cloud::FileStore>(dir + "/.audit"));
      result.audit_restore_skipped += server->table().audit_restore_skipped();
      stores.push_back(server->store());
      channels.push_back(std::make_unique<DirectChannel>(server.get()));
      servers.push_back(std::move(server));
    } else {
      stores.push_back(file_store.get());
      bare_stores.push_back(std::move(file_store));
    }
    report.before = cloud::check_store(*stores.back(), store_config);
    result.stores.push_back(std::move(report));
    store_configs.push_back(std::move(store_config));
  }

  // Per-document status across replicas.
  std::set<std::string> all_docs;
  std::map<std::string, std::set<std::size_t>> dirty_at;
  for (std::size_t i = 0; i < result.stores.size(); ++i) {
    const cloud::CheckReport& before = result.stores[i].before;
    for (const std::string& id : stores[i]->list_doc_ids()) {
      all_docs.insert(id);
    }
    for (const std::string& id : before.dirty_docs()) {
      all_docs.insert(id);
      dirty_at[id].insert(i);
    }
    // Boot-quarantined docs may not appear in findings (their record never
    // loaded); treat any quarantined doc as dirty on that replica.
    for (const std::string& id : before.quarantined) {
      all_docs.insert(id);
      dirty_at[id].insert(i);
    }
  }
  result.docs = all_docs.size();
  result.dirty_docs = dirty_at.size();

  if (options.repair && !dirty_at.empty()) {
    for (const auto& [doc_id, dirty_replicas] : dirty_at) {
      // Donor: among replicas where the document checked clean, the one
      // holding the highest revision (replicas can legitimately trail).
      std::optional<cloud::Store::Record> donor;
      std::size_t donor_idx = 0;
      for (std::size_t i = 0; i < stores.size(); ++i) {
        if (dirty_replicas.contains(i)) continue;
        std::optional<cloud::Store::Record> record;
        try {
          record = stores[i]->get(doc_id);
        } catch (const Error&) {
          continue;
        }
        if (record && (!donor || record->rev > donor->rev)) {
          donor = std::move(record);
          donor_idx = i;
        }
      }
      if (!donor) continue;  // damaged everywhere — quarantine below
      const SyncAuditAttachment audit = donor_audit(*channels[donor_idx],
                                                    doc_id);
      for (const std::size_t i : dirty_replicas) {
        if (push_repair(*channels[i], doc_id, *donor, audit,
                        &result.sync_stats)) {
          ++result.syncs_pushed;
        }
      }
    }

    if (!options.password.empty()) {
      // Drive the damaged documents through ReplicatedChannel with the
      // live extension's validator: a replica still serving bad bytes
      // fails validation, is noted lagging, and auto-repair re-pushes the
      // verified ciphertext — the online anti-entropy machinery finishing
      // whatever the direct pass missed.
      std::vector<net::Channel*> raw;
      for (auto& ch : channels) raw.push_back(ch.get());
      ReplicationConfig rconfig;
      rconfig.write_quorum = 1;
      ReplicatedChannel replicated(raw, gdocs_open_validator(options.password),
                                   rconfig);
      FormData open_form;
      open_form.add("cmd", "open");
      open_form.add("session", "anti-entropy");
      for (const auto& [doc_id, dirty_replicas] : dirty_at) {
        try {
          (void)replicated.round_trip(net::HttpRequest::post_form(
              target_for(doc_id), open_form.encode()));
        } catch (const Error&) {
          // All replicas bad for this doc — handled by quarantine below.
        }
      }
      result.syncs_pushed += replicated.repair_all();
    }
  }

  // Re-check, then quarantine what repair could not recover. Repair pushes
  // rewrote sidecar chains along with content, so chain evidence is
  // re-loaded from disk for the after pass.
  for (std::size_t i = 0; i < result.stores.size(); ++i) {
    if (options.repair) {
      store_configs[i].chains = load_audit_chains(store_dirs[i]);
      result.stores[i].after = cloud::check_store(*stores[i], store_configs[i]);
    } else {
      result.stores[i].after = result.stores[i].before;
    }
  }
  for (const auto& [doc_id, dirty_replicas] : dirty_at) {
    bool clean_somewhere = false;
    bool dirty_somewhere = false;
    for (std::size_t i = 0; i < result.stores.size(); ++i) {
      const bool dirty =
          result.stores[i].after.dirty_docs().contains(doc_id) ||
          (!options.repair && dirty_replicas.contains(i));
      const bool present = [&] {
        try {
          return stores[i]->get(doc_id).has_value();
        } catch (const Error&) {
          return false;
        }
      }();
      if (dirty) {
        dirty_somewhere = true;
      } else if (present) {
        clean_somewhere = true;
      }
    }
    if (!dirty_somewhere) {
      ++result.repaired_docs;
      continue;
    }
    if (!clean_somewhere && options.repair) {
      // No healthy copy exists anywhere: fence the document on every
      // replica so damaged ciphertext is never mistaken for the document.
      for (auto& server : servers) server->quarantine(doc_id);
      result.unrecoverable.push_back(doc_id);
    }
  }

  return result;
}

std::string format_fsck_result(const FsckResult& result) {
  std::ostringstream out;
  out << "privedit-fsck: " << result.docs << " doc(s) across "
      << result.stores.size() << " store(s); " << result.dirty_docs
      << " dirty, " << result.repaired_docs << " repaired, "
      << result.unrecoverable.size() << " unrecoverable (quarantined), "
      << result.syncs_pushed << " sync push(es)";
  if (result.sync_stats.probes > 0 || result.sync_stats.delta_pushes > 0) {
    out << " (" << result.sync_stats.probes << " probe(s), "
        << result.sync_stats.delta_pushes << " differential, "
        << result.sync_stats.fallbacks << " fallback(s), "
        << result.sync_stats.bytes_delta << " delta byte(s) vs "
        << result.sync_stats.bytes_full << " full)";
  }
  out << '\n';
  if (result.audit_restore_skipped > 0) {
    out << "  audit sidecar: " << result.audit_restore_skipped
        << " stale record(s)/orphan link(s) dropped at boot\n";
  }
  for (const FsckStoreReport& store : result.stores) {
    out << "  store " << store.directory << ": " << store.before.docs_checked
        << " checked, " << store.before.findings.size() << " finding(s)";
    if (store.orphan_tmps_swept > 0) {
      out << ", " << store.orphan_tmps_swept << " orphan tmp(s) swept";
    }
    out << '\n';
    for (const cloud::Finding& f : store.before.findings) {
      out << "    [" << cloud::finding_kind_name(f.kind) << "] "
          << hex_encode(as_bytes(f.doc_id)) << ": " << f.detail << '\n';
    }
  }
  if (!result.unrecoverable.empty()) {
    out << "  quarantined:";
    for (const std::string& id : result.unrecoverable) {
      out << ' ' << hex_encode(as_bytes(id));
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace privedit::extension
