#pragma once
// The benchmark's own seams around the system under test. Nothing here
// changes how a layer works; each class wraps one of the repository's
// public extension points and records what crosses it:
//
//   MeteredChannel  net::Channel between a mediator and its upstream:
//                   request/response body bytes, plus (traced) the
//                   net.upstream span and a copy of every exchange, made
//                   inside trace.copy spans.
//   traced_handler  net::Handler in front of GDocsServer / ShardRouter:
//                   the cloud.handle span, parented across threads by the
//                   X-Perfbench-Span header MeteredChannel stamps.
//   CountingStore   cloud::Store decorator: put count and bytes, plus
//                   (traced) the cloud.store_put / cloud.audit_put span.
//
// Spans are kept in memory by a Tracer and turned into per-op self times
// when the run ends (self time = span duration minus the part of it that
// its child spans cover).
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "privedit/cloud/file_store.hpp"
#include "privedit/net/transport.hpp"

namespace perfbench {

std::int64_t now_ns();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span, i.e. one editor operation
  const char* name = "";     // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span sink. When disabled, ScopedSpan records nothing and the
/// seams add no work beyond their byte counters.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const Span& span);
  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span. The parent defaults to the innermost open span on this
/// thread; pass one explicitly when the cause ran on another thread.
class ScopedSpan {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};
  ScopedSpan(Tracer& tracer, const char* name,
             std::uint64_t parent = kInherit);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
  std::uint64_t saved_current_ = 0;
};

/// One upstream request/response pair, kept (traced runs only) so probes
/// can replay the op's bodies after it finished.
struct Exchange {
  std::string request_body;
  int status = 0;
  std::string response_body;
};

class MeteredChannel final : public privedit::net::Channel {
 public:
  MeteredChannel(privedit::net::Channel* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  privedit::net::HttpResponse round_trip(
      const privedit::net::HttpRequest& request) override;

  std::uint64_t up_bytes() const { return up_bytes_; }
  std::uint64_t down_bytes() const { return down_bytes_; }
  std::vector<Exchange>& exchanges() { return exchanges_; }

 private:
  privedit::net::Channel* inner_;
  Tracer* tracer_;
  std::uint64_t up_bytes_ = 0;
  std::uint64_t down_bytes_ = 0;
  std::vector<Exchange> exchanges_;
};

/// In-process upstream: the mediator calls the handler directly, as the
/// repository's own in-process benches do (no codec, no sockets).
class DirectChannel final : public privedit::net::Channel {
 public:
  explicit DirectChannel(privedit::net::Handler handler)
      : handler_(std::move(handler)) {}
  privedit::net::HttpResponse round_trip(
      const privedit::net::HttpRequest& request) override {
    return handler_(request);
  }

 private:
  privedit::net::Handler handler_;
};

privedit::net::Handler traced_handler(privedit::net::Handler inner,
                                      Tracer* tracer);

class CountingStore final : public privedit::cloud::Store {
 public:
  CountingStore(std::unique_ptr<privedit::cloud::Store> inner, Tracer* tracer,
                const char* span_name)
      : inner_(std::move(inner)), tracer_(tracer), span_name_(span_name) {}

  void put(const std::string& doc_id, const Record& record) override;
  std::optional<Record> get(const std::string& doc_id) const override {
    return inner_->get(doc_id);
  }
  std::vector<std::string> list_doc_ids() const override {
    return inner_->list_doc_ids();
  }
  std::map<std::string, Record> load_all(
      std::vector<std::string>* corrupt = nullptr) const override {
    return inner_->load_all(corrupt);
  }
  void remove(const std::string& doc_id) override { inner_->remove(doc_id); }
  void set_quarantined(const std::string& doc_id, bool on) override {
    inner_->set_quarantined(doc_id, on);
  }
  std::set<std::string> quarantined() const override {
    return inner_->quarantined();
  }

  std::uint64_t puts() const { return puts_.load(); }
  std::uint64_t put_bytes() const { return put_bytes_.load(); }

 private:
  std::unique_ptr<privedit::cloud::Store> inner_;
  Tracer* tracer_;
  const char* span_name_;
  std::atomic<std::uint64_t> puts_{0};
  std::atomic<std::uint64_t> put_bytes_{0};
};

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to it). Keyed by span id.
std::map<std::uint64_t, double> self_ms(const std::vector<Span>& spans);

}  // namespace perfbench
