#include "privedit/client/gdocs_client.hpp"

#include "privedit/crypto/sha256.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::client {

GDocsClient::GDocsClient(net::Channel* channel, std::string doc_id)
    : channel_(channel), doc_id_(std::move(doc_id)) {
  if (channel_ == nullptr) {
    throw Error(ErrorCode::kInvalidArgument, "GDocsClient: null channel");
  }
}

net::HttpRequest GDocsClient::save_request(const std::string& form_body) const {
  return net::HttpRequest::post_form("/Doc?docID=" + percent_encode(doc_id_),
                                     form_body);
}

void GDocsClient::create() {
  FormData form;
  form.add("cmd", "create");
  const net::HttpResponse resp = channel_->round_trip(save_request(form.encode()));
  if (!resp.ok()) {
    throw ProtocolError("create failed: " + resp.body);
  }
  const FormData reply = FormData::parse(resp.body);
  session_ = reply.get("session").value_or("");
  text_.clear();
  last_saved_.clear();
  undo_stack_.clear();
  full_save_pending_ = true;
  rev_ = 0;
}

void GDocsClient::open() {
  FormData form;
  form.add("cmd", "open");
  const net::HttpResponse resp = channel_->round_trip(save_request(form.encode()));
  if (!resp.ok()) {
    throw ProtocolError("open failed: " + resp.body);
  }
  const FormData reply = FormData::parse(resp.body);
  text_ = reply.get("content").value_or("");
  last_saved_ = text_;
  undo_stack_.clear();
  session_ = reply.get("session").value_or("");
  rev_ = std::stoull(reply.get("rev").value_or("0"));
  // The session already has the authoritative content; subsequent saves
  // are incremental.
  full_save_pending_ = false;
}

void GDocsClient::insert(std::size_t pos, std::string_view text) {
  if (pos > text_.size()) {
    throw Error(ErrorCode::kInvalidArgument, "insert: position out of range");
  }
  delta::Delta d;
  if (pos > 0) d.push(delta::Op::retain(pos));
  d.push(delta::Op::insert(std::string(text)));
  undo_stack_.push_back(d.invert(text_));
  text_.insert(pos, text);
}

void GDocsClient::erase(std::size_t pos, std::size_t count) {
  if (pos + count > text_.size()) {
    throw Error(ErrorCode::kInvalidArgument, "erase: range out of bounds");
  }
  delta::Delta d;
  if (pos > 0) d.push(delta::Op::retain(pos));
  d.push(delta::Op::erase(count));
  undo_stack_.push_back(d.invert(text_));
  text_.erase(pos, count);
}

void GDocsClient::replace(std::size_t pos, std::size_t count,
                          std::string_view text) {
  if (pos + count > text_.size()) {
    throw Error(ErrorCode::kInvalidArgument, "replace: range out of bounds");
  }
  delta::Delta d;
  if (pos > 0) d.push(delta::Op::retain(pos));
  if (count > 0) d.push(delta::Op::erase(count));
  if (!text.empty()) d.push(delta::Op::insert(std::string(text)));
  undo_stack_.push_back(d.invert(text_));
  text_ = d.apply(text_);
}

bool GDocsClient::undo() {
  if (undo_stack_.empty()) return false;
  text_ = undo_stack_.back().apply(text_);
  undo_stack_.pop_back();
  return true;
}

void GDocsClient::queue_raw_delta(delta::Delta d) {
  raw_deltas_.push_back(std::move(d));
}

bool GDocsClient::tick(std::uint64_t now_us) {
  if (autosave_interval_us_ == 0 ||
      now_us - last_save_us_ < autosave_interval_us_) {
    return false;
  }
  const bool sent = save();
  last_save_us_ = now_us;
  return sent;
}

bool GDocsClient::save() {
  if (!session_) {
    throw Error(ErrorCode::kState, "save: no edit session (create/open first)");
  }
  if (text_ == last_saved_ && !full_save_pending_ && raw_deltas_.empty()) {
    return false;
  }

  FormData form;
  form.add("session", *session_);
  form.add("rev", std::to_string(rev_));
  if (full_save_pending_) {
    form.add("docContents", text_);
    raw_deltas_.clear();
  } else {
    delta::Delta d;
    if (!raw_deltas_.empty()) {
      // Batch the queued deltas into one update, as the real client does
      // between autosaves.
      d = std::move(raw_deltas_.front());
      for (std::size_t i = 1; i < raw_deltas_.size(); ++i) {
        d = delta::Delta::compose(d, raw_deltas_[i]);
      }
      raw_deltas_.clear();
      if (d.apply(last_saved_) != text_) {
        throw Error(ErrorCode::kInvalidArgument,
                    "save: queued raw deltas do not produce current text");
      }
    } else {
      d = delta::myers_diff(last_saved_, text_);
    }
    form.add("delta", d.to_wire());
  }

  const net::HttpResponse resp = channel_->round_trip(save_request(form.encode()));
  if (!resp.ok()) {
    throw ProtocolError("save failed: " + resp.body);
  }
  consume_ack(resp);
  last_saved_ = text_;
  full_save_pending_ = false;
  ++saves_;
  return true;
}

void GDocsClient::consume_ack(const net::HttpResponse& response) {
  const FormData ack = FormData::parse(response.body);
  const std::uint64_t expected = rev_ + 1;
  std::uint64_t got = expected;
  if (const auto rev = ack.get("rev")) {
    got = std::stoull(*rev);
  }
  rev_ = got;
  if (got == expected) {
    // No concurrent writer — single-user editing works even with blanked
    // ack fields, exactly as the paper observed.
    return;
  }
  // Someone else edited the document. Reconcile using the server's view.
  const auto hash = ack.get("contentFromServerHash");
  const auto content = ack.get("contentFromServer");
  if (hash && *hash == crypto::content_hash16(text_)) {
    return;  // we already converged
  }
  if (hash && content && *hash == crypto::content_hash16(*content)) {
    // Authoritative merge: adopt the server's content. This is what the
    // real client does with plaintext documents. Local undo history no
    // longer applies to the merged text.
    text_ = *content;
    last_saved_ = text_;
    undo_stack_.clear();
    ++merges_;
    return;
  }
  // The extension blanked contentFromServer and zeroed the hash (it can't
  // produce plaintext-correct values), so the client cannot reconcile —
  // the "multiple people editing the same region" complaint of §VII-A.
  ++conflicts_;
}

std::vector<std::string> GDocsClient::spellcheck() {
  FormData form;
  form.add("cmd", "spellcheck");
  form.add("text", text_);
  const net::HttpResponse resp = channel_->round_trip(save_request(form.encode()));
  if (!resp.ok()) {
    throw ProtocolError("spellcheck unavailable: " + resp.body);
  }
  std::vector<std::string> out;
  const FormData reply = FormData::parse(resp.body);
  for (const auto& [k, v] : reply.fields()) {
    if (k == "misspelled") out.push_back(v);
  }
  return out;
}

std::string GDocsClient::export_txt() {
  FormData form;
  form.add("cmd", "export");
  form.add("format", "txt");
  const net::HttpResponse resp = channel_->round_trip(save_request(form.encode()));
  if (!resp.ok()) {
    throw ProtocolError("export unavailable: " + resp.body);
  }
  return resp.body;
}

}  // namespace privedit::client
