#include "probes.hpp"

#include <filesystem>
#include <optional>

#include "privedit/cloud/doc_table.hpp"
#include "privedit/cloud/file_store.hpp"
#include "privedit/crypto/key_derivation.hpp"
#include "privedit/crypto/sha256.hpp"
#include "privedit/delta/delta.hpp"
#include "privedit/enc/audit_record.hpp"
#include "privedit/enc/container.hpp"
#include "privedit/enc/scheme.hpp"
#include "privedit/extension/session.hpp"
#include "privedit/util/crc32.hpp"
#include "privedit/util/hex.hpp"
#include "privedit/util/urlencode.hpp"

namespace perfbench {

using namespace privedit;

namespace {

template <class F>
double time_ms(F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  return static_cast<double>(now_ns() - t0) / 1e6;
}

std::uint64_t field_u64(const FormData& form, std::string_view key) {
  const auto v = form.get(key);
  return v ? std::stoull(*v) : 0;
}

}  // namespace

struct Prober::Shadow {
  // Keys for the document's salt, derived once: a replica is rebuilt from
  // the live container before every probed op, and the KDF would
  // otherwise dominate the probing time.
  std::optional<crypto::DocumentKeys> keys;
  Bytes salt;
  std::unique_ptr<extension::EditJournal> journal;
  std::unique_ptr<extension::DocumentAuditor> writer_auditor;
  std::unique_ptr<extension::DocumentAuditor> device_auditor;
  cloud::DocTable table;
  std::unique_ptr<cloud::FileStore> store;
};

Prober::Prober(std::string password, std::string client_id,
               std::string shadow_dir, PassResult* out)
    : password_(std::move(password)),
      client_id_(std::move(client_id)),
      shadow_dir_(std::move(shadow_dir)),
      out_(out),
      rng_(extension::seeded_rng_factory(0x5eed)) {
  std::filesystem::create_directories(shadow_dir_);
}

Prober::~Prober() = default;

Prober::Shadow& Prober::shadow(const std::string& doc_id) {
  auto& slot = shadows_[doc_id];
  if (slot == nullptr) {
    slot = std::make_unique<Shadow>();
    const std::string base = shadow_dir_ + "/" + hex_encode(as_bytes(doc_id));
    const Bytes key = enc::derive_audit_key(password_, doc_id);
    slot->journal = std::make_unique<extension::EditJournal>(base + ".wal");
    slot->writer_auditor = std::make_unique<extension::DocumentAuditor>(
        key, doc_id, client_id_, base + ".achain");
    slot->device_auditor = std::make_unique<extension::DocumentAuditor>(
        key, doc_id, client_id_ + "-device", base + ".device.achain");
    slot->store = std::make_unique<cloud::FileStore>(base + ".store");
  }
  return *slot;
}

std::unique_ptr<enc::IncrementalScheme> Prober::replica(
    Shadow& s, const std::string& container) {
  const enc::ContainerHeader header = enc::ContainerReader{container}.header();
  if (!s.keys || s.salt != header.salt) {
    s.keys.emplace(crypto::derive_document_keys(
        password_, header.salt, crypto::KdfParams{header.kdf_iterations}));
    s.salt = header.salt;
  }
  auto scheme = enc::make_scheme(header, *s.keys, rng_());
  scheme->load(container);
  return scheme;
}

void Prober::bodies(const Exchange& exchange) {
  std::string request;
  std::string response;
  record("util.form_codec_ms", time_ms([&] {
           request = FormData::parse(exchange.request_body).encode();
           response = FormData::parse(exchange.response_body).encode();
         }));
  if (request != exchange.request_body || response != exchange.response_body) {
    out_->fail("probe util.form_codec: re-encoded bodies differ from the wire");
  }
}

void Prober::common_save_path(const std::string& doc_id, Shadow& s,
                              const std::string& pre, const std::string& post,
                              bool full_save, const std::string& update,
                              const Exchange& exchange) {
  const FormData req = FormData::parse(exchange.request_body);
  const FormData resp = FormData::parse(exchange.response_body);

  Bytes digest;
  record("crypto.sha256_container_ms",
         time_ms([&] { digest = crypto::Sha256::hash(as_bytes(post)); }));
  const std::string checksum = hex_encode(digest).substr(0, 16);
  if (resp.get("contentFromServerHash") != checksum) {
    out_->fail("probe crypto.sha256: prefix differs from the server's ack hash");
  }

  std::uint32_t crc = 0;
  record("util.crc32_container_ms",
         time_ms([&] { crc = crc32(as_bytes(post)); }));
  const std::string alink = req.get("alink").value_or("");
  if (alink.empty() || enc::decode_link(alink).crc != crc) {
    out_->fail("probe util.crc32: differs from the CRC in the live audit link");
  }

  cloud::DocTable::Document& doc = s.table.obtain(doc_id);
  doc.history.clear();
  doc.content = pre;
  record("cloud.history_copy_ms",
         time_ms([&] { s.table.record_history(doc); }));
  if (doc.history.back() != pre) {
    out_->fail("probe cloud.history_copy: copy differs from the container");
  }

  const std::uint64_t base_rev = field_u64(req, "rev");
  const std::uint64_t acked_rev = field_u64(resp, "rev");
  record("extension.journal_append_ms", time_ms([&] {
           s.journal->append_pending({base_rev, full_save, checksum, update});
         }));
  record("extension.journal_ack_ms",
         time_ms([&] { s.journal->ack_front(acked_rev, checksum); }));
  if (!s.journal->pending().empty() ||
      s.journal->last_acked()->checksum != checksum) {
    out_->fail("probe extension.journal: shadow journal did not settle");
  }

  s.writer_auditor->adopt(field_u64(req, "abaserev"),
                          hex_decode(req.get("abase").value_or("")));
  enc::AuditLink link;
  record("extension.audit_stage_commit_ms", time_ms([&] {
           link = s.writer_auditor->stage_link(
               s.writer_auditor->committed_rev() + 1, crc);
           s.writer_auditor->commit_staged();
         }));
  if (enc::encode_link(link) != alink) {
    out_->fail("probe extension.audit_stage: link differs from the live one");
  }

  const std::string achain = resp.get("achain").value_or("");
  std::string recoded;
  record("enc.audit_chain_codec_ms", time_ms([&] {
           recoded = enc::encode_chain(enc::decode_chain(achain));
         }));
  if (recoded != achain) {
    out_->fail("probe enc.audit_chain_codec: chain does not round-trip");
  }
  bodies(exchange);
}

void Prober::keystroke(const std::string& doc_id, const std::string& pre,
                       const std::string& post, const std::string& post_plain,
                       const std::string& pdelta_wire,
                       const Exchange& exchange) {
  kind_ = OpKind::kKeystroke;
  Shadow& s = shadow(doc_id);
  const FormData req = FormData::parse(exchange.request_body);
  const std::string cdelta_wire = req.get("delta").value_or("");
  const auto scheme = replica(s, pre);

  std::string serialized;
  record("enc.ciphertext_doc_ms",
         time_ms([&] { serialized = scheme->ciphertext_doc(); }));
  if (serialized != pre) {
    out_->fail("probe enc.ciphertext_doc: differs from the live container");
  }

  const delta::Delta pdelta = delta::Delta::parse(pdelta_wire);
  delta::Delta cdelta;
  record("enc.transform_ms",
         time_ms([&] { cdelta = scheme->transform_delta(pdelta); }));
  if (scheme->plaintext() != post_plain ||
      cdelta.to_wire().size() != cdelta_wire.size()) {
    out_->fail("probe enc.transform: shadow edit differs from the live one");
  }

  std::string p_wire;
  std::string c_wire;
  record("delta.codec_ms", time_ms([&] {
           p_wire = delta::Delta::parse(pdelta_wire).to_wire();
           c_wire = delta::Delta::parse(cdelta_wire).to_wire();
         }));
  if (p_wire != pdelta_wire || c_wire != cdelta_wire) {
    out_->fail("probe delta.codec: deltas do not round-trip");
  }

  const delta::Delta live_cdelta = delta::Delta::parse(cdelta_wire);
  std::string applied;
  record("delta.apply_container_ms",
         time_ms([&] { applied = live_cdelta.apply(pre); }));
  if (applied != post) {
    out_->fail("probe delta.apply: result differs from the live container");
  }

  common_save_path(doc_id, s, pre, post, /*full_save=*/false, cdelta_wire,
                   exchange);
}

void Prober::save(const std::string& doc_id, const std::string& pre,
                  const std::string& text, const Exchange& exchange) {
  kind_ = OpKind::kSave;
  Shadow& s = shadow(doc_id);
  const FormData req = FormData::parse(exchange.request_body);
  const FormData resp = FormData::parse(exchange.response_body);
  const std::string post = req.get("docContents").value_or("");
  const auto scheme = replica(s, pre);

  std::string fresh;
  record("enc.encrypt_full_ms",
         time_ms([&] { fresh = scheme->initialize(text); }));
  if (fresh.size() != post.size() || scheme->plaintext() != text) {
    out_->fail("probe enc.encrypt_full: container differs from the live one");
  }

  const cloud::Store::Record rec{post, field_u64(resp, "rev")};
  record("cloud.file_store_put_ms",
         time_ms([&] { s.store->put(doc_id, rec); }));
  if (s.store->get(doc_id) != rec) {
    out_->fail("probe cloud.file_store_put: record did not read back");
  }

  common_save_path(doc_id, s, pre, post, /*full_save=*/true, post, exchange);
}

DeviceTip served_tip(const Exchange& open) {
  const enc::AuditChain chain = enc::decode_chain(
      FormData::parse(open.response_body).get("achain").value_or(""));
  return {true, chain.tip_rev(),
          chain.links.empty() ? chain.base_head : chain.links.back().head};
}

void Prober::open(const std::string& doc_id, const std::string& expected,
                  const Exchange& exchange, const DeviceTip& tip) {
  kind_ = OpKind::kOpen;
  Shadow& s = shadow(doc_id);
  const FormData resp = FormData::parse(exchange.response_body);
  const std::string container = resp.get("content").value_or("");

  const enc::ContainerHeader header = enc::ContainerReader{container}.header();
  std::optional<crypto::DocumentKeys> keys;
  record("crypto.kdf_ms", time_ms([&] {
           keys.emplace(crypto::derive_document_keys(
               password_, header.salt,
               crypto::KdfParams{header.kdf_iterations}));
         }));
  const auto scheme = enc::make_scheme(header, *keys, rng_());
  scheme->load(container);
  if (scheme->plaintext() != expected) {
    out_->fail("probe crypto.kdf: derived keys do not open the document");
  }

  std::optional<extension::DocumentSession> session;
  record("enc.load_ms", time_ms([&] {
           session.emplace(
               extension::DocumentSession::open(password_, container, rng_));
         }));
  if (session->plaintext() != expected) {
    out_->fail("probe enc.load: plaintext differs from the writer's text");
  }

  const std::string achain = resp.get("achain").value_or("");
  const enc::AuditChain chain = enc::decode_chain(achain);
  if (tip.known) {
    s.device_auditor->adopt(tip.rev, tip.head);
  } else {
    s.device_auditor->adopt(chain.base_rev, chain.base_head);
  }
  const std::uint32_t crc = crc32(as_bytes(container));
  extension::DocumentAuditor::Verification verdict;
  record("extension.audit_verify_ms", time_ms([&] {
           verdict = s.device_auditor->verify_served(
               chain, field_u64(resp, "rev"), crc);
         }));
  if (verdict.verdict != extension::AuditVerdict::kOk) {
    out_->fail("probe extension.audit_verify: " + verdict.detail);
  }

  std::string recoded;
  record("enc.audit_chain_codec_ms", time_ms([&] {
           recoded = enc::encode_chain(enc::decode_chain(achain));
         }));
  if (recoded != achain) {
    out_->fail("probe enc.audit_chain_codec: chain does not round-trip");
  }
  bodies(exchange);
}

}  // namespace perfbench
