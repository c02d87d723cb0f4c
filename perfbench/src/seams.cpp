#include "seams.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

namespace perfbench {
namespace {

constexpr const char* kSpanHeader = "X-Perfbench-Span";

thread_local std::uint64_t t_current_span = 0;

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent)
    : tracer_(tracer.enabled() ? &tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.id = tracer.next_id();
  span_.parent = parent == kInherit ? t_current_span : parent;
  span_.name = name;
  saved_current_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = now_ns();
  t_current_span = saved_current_;
  tracer_->record(span_);
}

privedit::net::HttpResponse MeteredChannel::round_trip(
    const privedit::net::HttpRequest& request) {
  up_bytes_ += request.body.size();
  if (!tracer_->enabled()) {
    privedit::net::HttpResponse resp = inner_->round_trip(request);
    down_bytes_ += resp.body.size();
    return resp;
  }
  // The request copy and the kept exchange are tracing's own work: their
  // trace.copy spans keep it out of the mediator's self time.
  privedit::net::HttpRequest tagged;
  {
    ScopedSpan copy(*tracer_, "trace.copy");
    tagged = request;
  }
  privedit::net::HttpResponse resp;
  {
    ScopedSpan span(*tracer_, "net.upstream");
    tagged.headers.set(kSpanHeader, std::to_string(span.id()));
    resp = inner_->round_trip(tagged);
  }
  down_bytes_ += resp.body.size();
  {
    ScopedSpan copy(*tracer_, "trace.copy");
    exchanges_.push_back({request.body, resp.status, resp.body});
  }
  return resp;
}

privedit::net::Handler traced_handler(privedit::net::Handler inner,
                                      Tracer* tracer) {
  return [inner = std::move(inner),
          tracer](const privedit::net::HttpRequest& request) {
    if (!tracer->enabled()) return inner(request);
    std::uint64_t parent = 0;
    if (const auto header = request.headers.get(kSpanHeader)) {
      parent = std::stoull(*header);
    }
    ScopedSpan span(*tracer, "cloud.handle", parent);
    return inner(request);
  };
}

void CountingStore::put(const std::string& doc_id, const Record& record) {
  puts_.fetch_add(1);
  put_bytes_.fetch_add(record.content.size());
  ScopedSpan span(*tracer_, span_name_);
  inner_->put(doc_id, record);
}

std::map<std::uint64_t, double> self_ms(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::uint64_t, double> out;
  for (const Span& s : spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const std::int64_t lo = std::max(c->start_ns, s.start_ns);
        const std::int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) union_ns += hi - from;
      reach = std::max(reach, hi);
    }
    out[s.id] = static_cast<double>(s.end_ns - s.start_ns - union_ns) / 1e6;
  }
  return out;
}

}  // namespace perfbench
