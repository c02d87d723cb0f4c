#include "privedit/cloud/doc_table.hpp"

#include <utility>

#include "privedit/enc/audit_record.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::cloud {
namespace {

/// Restores a document's chain from its sidecar wire and drops links that
/// commit revisions beyond its rev. The save path persists the audit
/// sidecar before the document record (the two puts are not jointly
/// atomic), so a crash between them leaves the chain exactly one link
/// ahead of the record. That orphan link was never acknowledged; keeping
/// it would make the restored server claim history for a revision it
/// cannot serve. An unparseable chain is dropped — the next save re-roots
/// it, and the clients' committed heads flag the gap as a fork, which is
/// correct for history the server lost. Returns the number of links (an
/// unparseable chain counts as one) dropped.
std::size_t restore_chain(DocTable::Document& doc, std::string_view wire) {
  if (wire.empty()) return 0;
  enc::AuditChain chain;
  try {
    chain = enc::decode_chain(wire);
  } catch (const Error&) {
    doc.set_audit_chain(nullptr);
    return 1;
  }
  if (chain.base_rev > doc.rev) {
    doc.set_audit_chain(nullptr);
    return chain.links.size() + 1;
  }
  std::size_t dropped = 0;
  while (!chain.links.empty() && chain.links.back().rev > doc.rev) {
    chain.links.pop_back();
    ++dropped;
  }
  doc.set_audit_chain(&chain);
  return dropped;
}

}  // namespace

void DocTable::Document::set_audit_chain(const enc::AuditChain* chain) {
  audit_chain = chain == nullptr ? std::string() : enc::encode_chain(*chain);
  audit_links = chain == nullptr ? 0 : chain->links.size();
}

std::vector<std::string> DocTable::attach_store(std::unique_ptr<Store> store) {
  store_ = std::move(store);
  std::vector<std::string> corrupt;
  for (auto& [doc_id, record] : store_->load_all(&corrupt)) {
    Document& doc = docs_[doc_id];
    doc.content = std::move(record.content);
    doc.rev = record.rev;
  }
  for (const std::string& doc_id : store_->quarantined()) {
    quarantined_.insert(doc_id);
  }
  return corrupt;
}

void DocTable::attach_audit_store(std::unique_ptr<Store> store) {
  audit_store_ = std::move(store);
  std::vector<std::string> corrupt;
  for (auto& [doc_id, record] : audit_store_->load_all(&corrupt)) {
    const auto it = docs_.find(doc_id);
    if (it == docs_.end()) {
      ++audit_restore_skipped_;  // sidecar outlived its document
      continue;
    }
    try {
      const FormData form = FormData::parse(record.content);
      audit_restore_skipped_ +=
          restore_chain(it->second, form.get("chain").value_or(""));
      for (const auto& [key, value] : form.fields()) {
        if (key != "w") continue;
        const std::size_t sep = value.find('=');
        if (sep == std::string::npos) continue;
        it->second.witnesses[value.substr(0, sep)] = value.substr(sep + 1);
      }
    } catch (const Error&) {
      ++audit_restore_skipped_;
    }
  }
  audit_restore_skipped_ += corrupt.size();
}

void DocTable::persist_audit(const std::string& doc_id, const Document& doc) {
  if (audit_store_ == nullptr) return;
  if (doc.audit_chain.empty() && doc.witnesses.empty()) {
    audit_store_->remove(doc_id);
    return;
  }
  FormData form;
  form.add("chain", doc.audit_chain);
  for (const auto& [client, wire] : doc.witnesses) {
    form.add("w", client + "=" + wire);
  }
  audit_store_->put(doc_id, Store::Record{form.encode(), doc.rev});
}

DocTable::Document* DocTable::find(const std::string& doc_id) {
  const auto it = docs_.find(doc_id);
  return it == docs_.end() ? nullptr : &it->second;
}

const DocTable::Document* DocTable::find(const std::string& doc_id) const {
  const auto it = docs_.find(doc_id);
  return it == docs_.end() ? nullptr : &it->second;
}

DocTable::Document& DocTable::obtain(const std::string& doc_id) {
  return docs_[doc_id];
}

bool DocTable::erase(const std::string& doc_id) {
  const bool existed = docs_.erase(doc_id) > 0;
  if (quarantined_.erase(doc_id) > 0 && store_ != nullptr) {
    store_->set_quarantined(doc_id, false);
  }
  if (store_ != nullptr) store_->remove(doc_id);
  if (audit_store_ != nullptr) audit_store_->remove(doc_id);
  return existed;
}

std::vector<std::string> DocTable::ids() const {
  std::vector<std::string> out;
  out.reserve(docs_.size());
  for (const auto& [doc_id, doc] : docs_) out.push_back(doc_id);
  return out;
}

void DocTable::persist(const std::string& doc_id, const Document& doc) {
  if (store_ != nullptr) {
    store_->put(doc_id, Store::Record{doc.content, doc.rev});
  }
}

void DocTable::record_history(Document& doc) {
  doc.history.push_back(doc.content);
  if (history_limit_ > 0 && doc.history.size() > history_limit_) {
    doc.history.erase(doc.history.begin(),
                      doc.history.end() -
                          static_cast<std::ptrdiff_t>(history_limit_));
  }
}

void DocTable::quarantine(const std::string& doc_id) {
  quarantined_.insert(doc_id);
  if (store_ != nullptr) store_->set_quarantined(doc_id, true);
}

void DocTable::unquarantine(const std::string& doc_id) {
  quarantined_.erase(doc_id);
  if (store_ != nullptr) store_->set_quarantined(doc_id, false);
}

}  // namespace privedit::cloud
