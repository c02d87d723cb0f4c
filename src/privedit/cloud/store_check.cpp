#include "privedit/cloud/store_check.hpp"

#include <algorithm>

#include "privedit/crypto/sha256.hpp"
#include "privedit/enc/audit_record.hpp"
#include "privedit/enc/container.hpp"
#include "privedit/util/bytes.hpp"
#include "privedit/util/crc32.hpp"
#include "privedit/util/error.hpp"

namespace privedit::cloud {

std::string_view finding_kind_name(FindingKind kind) {
  switch (kind) {
    case FindingKind::kUnreadableRecord:
      return "unreadable-record";
    case FindingKind::kContainerCorrupt:
      return "container-corrupt";
    case FindingKind::kDecryptFailed:
      return "decrypt-failed";
    case FindingKind::kRollback:
      return "rollback";
    case FindingKind::kFork:
      return "fork";
    case FindingKind::kMissing:
      return "missing";
    case FindingKind::kChainBreak:
      return "chain-break";
  }
  return "unknown";
}

std::size_t CheckReport::count(FindingKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [kind](const Finding& f) { return f.kind == kind; }));
}

std::set<std::string> CheckReport::dirty_docs() const {
  std::set<std::string> out;
  for (const Finding& f : findings) out.insert(f.doc_id);
  return out;
}

namespace {

void add_finding(std::vector<Finding>* out, const std::string& doc_id,
                 FindingKind kind, std::string detail) {
  if (out != nullptr) {
    out->push_back({doc_id, kind, Disposition::kRepairable, std::move(detail)});
  }
}

/// Decodes every unit (or the first `max_units`) so a flipped byte
/// anywhere in the framing — not just the header — is caught.
bool container_walk_ok(const std::string& content, std::size_t max_units,
                       std::string* detail) {
  try {
    enc::ContainerReader reader(content);
    std::size_t units = reader.unit_count();
    if (max_units != 0) units = std::min(units, max_units);
    for (std::size_t u = 0; u < units; ++u) {
      (void)reader.unit(u);
    }
    return true;
  } catch (const Error& e) {
    *detail = e.what();
    return false;
  }
}

/// Keyless structural validation of a stored audit chain against the
/// record it describes (the MAC math needs K_audit; only clients have
/// that — see CheckConfig::chains).
bool chain_structure_ok(const std::string& wire, const Store::Record& record,
                        std::string* detail) {
  enc::AuditChain chain;
  try {
    chain = enc::decode_chain(wire);
  } catch (const Error& e) {
    *detail = std::string("audit chain undecodable: ") + e.what();
    return false;
  }
  std::uint64_t prev = chain.base_rev;
  for (const enc::AuditLink& link : chain.links) {
    if (link.rev <= prev) {
      *detail = "audit chain revisions not ascending at rev " +
                std::to_string(link.rev);
      return false;
    }
    prev = link.rev;
  }
  if (chain.tip_rev() != record.rev) {
    *detail = "audit chain tip rev " + std::to_string(chain.tip_rev()) +
              " != stored rev " + std::to_string(record.rev);
    return false;
  }
  if (!chain.links.empty()) {
    const std::uint32_t tip_crc = chain.links.back().crc;
    // crc 0 is the "unbound" sentinel (a journal-replayed delta link
    // cannot know the resulting container CRC) — nothing to cross-check.
    if (tip_crc != 0 && tip_crc != crc32(as_bytes(record.content))) {
      *detail = "audit chain tip CRC diverges from stored container at rev " +
                std::to_string(record.rev);
      return false;
    }
  }
  return true;
}

}  // namespace

bool check_record(const std::string& doc_id, const Store::Record& record,
                  const CheckConfig& config, std::vector<Finding>* out) {
  bool clean = true;
  if (enc::looks_like_container(record.content)) {
    std::string detail;
    if (!container_walk_ok(record.content, config.max_units, &detail)) {
      add_finding(out, doc_id, FindingKind::kContainerCorrupt, detail);
      clean = false;
    } else if (config.deep_validate && !config.deep_validate(record.content)) {
      add_finding(out, doc_id, FindingKind::kDecryptFailed,
                  "container parses but fails full validation");
      clean = false;
    }
  }
  // Anchor checks are independent of content structure: a rolled-back
  // store can hold a perfectly well-formed *old* container, which only
  // the journal's last-acked (rev, checksum) pair can expose (§II's
  // rollback adversary applied to storage).
  const auto anchor = config.anchors.find(doc_id);
  if (anchor != config.anchors.end()) {
    if (record.rev < anchor->second.rev) {
      add_finding(out, doc_id, FindingKind::kRollback,
                  "stored rev " + std::to_string(record.rev) +
                      " behind acked rev " +
                      std::to_string(anchor->second.rev));
      clean = false;
    } else if (record.rev == anchor->second.rev &&
               !anchor->second.checksum.empty() &&
               crypto::content_hash16(record.content) !=
                   anchor->second.checksum) {
      add_finding(out, doc_id, FindingKind::kFork,
                  "stored content diverges from acked checksum at rev " +
                      std::to_string(record.rev));
      clean = false;
    }
    // rev > anchor.rev is fine: the provider legitimately moves ahead of
    // the last write *this* client saw acknowledged.
  }
  // A stored chain that cannot describe the stored record means no client
  // will ever link this history — broken independently of the container
  // bytes being well-formed.
  if (const auto chain = config.chains.find(doc_id);
      chain != config.chains.end() && !chain->second.empty()) {
    std::string detail;
    if (!chain_structure_ok(chain->second, record, &detail)) {
      add_finding(out, doc_id, FindingKind::kChainBreak, std::move(detail));
      clean = false;
    }
  }
  return clean;
}

CheckReport check_store(const Store& store, const CheckConfig& config) {
  CheckReport report;
  report.quarantined = store.quarantined();

  std::set<std::string> ids;
  for (std::string& id : store.list_doc_ids()) ids.insert(std::move(id));
  for (const auto& [id, anchor] : config.anchors) {
    if (!ids.contains(id)) {
      report.findings.push_back({id, FindingKind::kMissing,
                                 Disposition::kRepairable,
                                 "anchored at rev " +
                                     std::to_string(anchor.rev) +
                                     " but absent from store"});
    }
  }

  for (const std::string& doc_id : ids) {
    ++report.docs_checked;
    std::optional<Store::Record> record;
    try {
      record = store.get(doc_id);
    } catch (const Error& e) {
      report.findings.push_back({doc_id, FindingKind::kUnreadableRecord,
                                 Disposition::kRepairable, e.what()});
      continue;
    }
    if (!record) {
      // Listed but gone by the time we read it — treat like missing.
      report.findings.push_back({doc_id, FindingKind::kUnreadableRecord,
                                 Disposition::kRepairable,
                                 "listed but unreadable"});
      continue;
    }
    if (check_record(doc_id, *record, config, &report.findings)) {
      ++report.clean;
    }
  }
  return report;
}

CheckReport check_directory(const std::string& directory,
                            const CheckConfig& config, std::size_t* swept) {
  FileStore store(directory);
  if (swept != nullptr) *swept = store.tmp_swept();
  return check_store(store, config);
}

}  // namespace privedit::cloud
