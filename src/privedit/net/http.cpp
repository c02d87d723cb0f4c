#include "privedit/net/http.hpp"

#include <algorithm>
#include <charconv>

#include "privedit/util/error.hpp"
#include "privedit/util/urlencode.hpp"

namespace privedit::net {
namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string reason_for(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 201:
      return "Created";
    case 204:
      return "No Content";
    case 400:
      return "Bad Request";
    case 403:
      return "Forbidden";
    case 404:
      return "Not Found";
    case 409:
      return "Conflict";
    case 412:
      return "Precondition Failed";
    case 500:
      return "Internal Server Error";
    default:
      return "Unknown";
  }
}

struct ParsedHead {
  std::string start_line;
  Headers headers;
  std::string body;
};

ParsedHead parse_message(std::string_view wire) {
  const std::size_t head_end = wire.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    throw ParseError("http: missing header terminator");
  }
  const std::string_view head = wire.substr(0, head_end);
  const std::string_view rest = wire.substr(head_end + 4);

  ParsedHead out;
  std::size_t line_end = head.find("\r\n");
  out.start_line = std::string(
      head.substr(0, line_end == std::string_view::npos ? head.size()
                                                        : line_end));
  std::size_t pos =
      line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t next = head.find("\r\n", pos);
    if (next == std::string_view::npos) next = head.size();
    const std::string_view line = head.substr(pos, next - pos);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      throw ParseError("http: malformed header line");
    }
    std::string_view name = line.substr(0, colon);
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    out.headers.add(std::string(name), std::string(value));
    pos = next + 2;
  }

  // Collect every Content-Length header: request-smuggling classics are a
  // value with trailing garbage ("123abc") and conflicting duplicates —
  // both are rejected, not guessed at.
  std::size_t content_length = 0;
  bool seen_length = false;
  for (const auto& [name, value] : out.headers.entries()) {
    if (!iequals(name, "Content-Length")) continue;
    std::string_view v = value;
    while (!v.empty() && (v.back() == ' ' || v.back() == '\t')) {
      v.remove_suffix(1);
    }
    std::size_t n = 0;
    const auto* b = v.data();
    const auto* e = b + v.size();
    auto [p, ec] = std::from_chars(b, e, n);
    if (ec != std::errc() || p != e || v.empty()) {
      throw ParseError("http: invalid Content-Length");
    }
    if (seen_length && n != content_length) {
      throw ParseError("http: conflicting duplicate Content-Length headers");
    }
    seen_length = true;
    content_length = n;
  }
  if (rest.size() < content_length) {
    throw ParseError("http: truncated body");
  }
  out.body = std::string(rest.substr(0, content_length));
  return out;
}

}  // namespace

void Headers::set(std::string name, std::string value) {
  for (auto& [n, v] : entries_) {
    if (iequals(n, name)) {
      v = std::move(value);
      return;
    }
  }
  entries_.emplace_back(std::move(name), std::move(value));
}

void Headers::add(std::string name, std::string value) {
  entries_.emplace_back(std::move(name), std::move(value));
}

std::optional<std::string> Headers::get(std::string_view name) const {
  for (const auto& [n, v] : entries_) {
    if (iequals(n, name)) return v;
  }
  return std::nullopt;
}

bool Headers::contains(std::string_view name) const {
  return get(name).has_value();
}

std::size_t Headers::remove(std::string_view name) {
  std::size_t removed = 0;
  std::erase_if(entries_, [&](const auto& kv) {
    if (iequals(kv.first, name)) {
      ++removed;
      return true;
    }
    return false;
  });
  return removed;
}

std::string HttpRequest::path() const {
  const std::size_t q = target.find('?');
  return q == std::string::npos ? target : target.substr(0, q);
}

std::optional<std::string> HttpRequest::query_param(
    std::string_view key) const {
  const std::size_t q = target.find('?');
  if (q == std::string::npos) return std::nullopt;
  const FormData params = FormData::parse(target.substr(q + 1));
  return params.get(key);
}

std::string HttpRequest::serialize() const {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  // Content-Length is always recomputed from the actual body: mediators
  // rewrite bodies after parsing, and a stale length desynchronises the
  // stream framing.
  for (const auto& [n, v] : headers.entries()) {
    if (iequals(n, "Content-Length")) continue;
    out += n + ": " + v + "\r\n";
  }
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "\r\n";
  out += body;
  return out;
}

HttpRequest HttpRequest::parse(std::string_view wire) {
  ParsedHead head = parse_message(wire);
  HttpRequest req;
  const std::size_t sp1 = head.start_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : head.start_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    throw ParseError("http: malformed request line");
  }
  req.method = head.start_line.substr(0, sp1);
  req.target = head.start_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = head.start_line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    throw ParseError("http: unsupported version");
  }
  req.headers = std::move(head.headers);
  req.body = std::move(head.body);
  return req;
}

HttpRequest HttpRequest::post_form(std::string target, std::string form_body) {
  HttpRequest req;
  req.method = "POST";
  req.target = std::move(target);
  req.headers.set("Content-Type", "application/x-www-form-urlencoded");
  req.body = std::move(form_body);
  return req;
}

std::string HttpResponse::serialize() const {
  std::string out =
      "HTTP/1.1 " + std::to_string(status) + " " + reason + "\r\n";
  // Always recomputed — see HttpRequest::serialize.
  for (const auto& [n, v] : headers.entries()) {
    if (iequals(n, "Content-Length")) continue;
    out += n + ": " + v + "\r\n";
  }
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "\r\n";
  out += body;
  return out;
}

HttpResponse HttpResponse::parse(std::string_view wire) {
  ParsedHead head = parse_message(wire);
  HttpResponse resp;
  // "HTTP/1.1 200 OK"
  const std::size_t sp1 = head.start_line.find(' ');
  if (sp1 == std::string::npos ||
      head.start_line.substr(0, 5) != "HTTP/") {
    throw ParseError("http: malformed status line");
  }
  const std::size_t sp2 = head.start_line.find(' ', sp1 + 1);
  const std::string code = head.start_line.substr(
      sp1 + 1, sp2 == std::string::npos ? std::string::npos : sp2 - sp1 - 1);
  const auto* b = code.data();
  const auto* e = b + code.size();
  auto [p, ec] = std::from_chars(b, e, resp.status);
  if (ec != std::errc() || p != e) {
    throw ParseError("http: invalid status code");
  }
  resp.reason =
      sp2 == std::string::npos ? reason_for(resp.status)
                               : head.start_line.substr(sp2 + 1);
  resp.headers = std::move(head.headers);
  resp.body = std::move(head.body);
  return resp;
}

HttpResponse HttpResponse::make(int status, std::string body,
                                std::string content_type) {
  HttpResponse resp;
  resp.status = status;
  resp.reason = reason_for(status);
  resp.headers.set("Content-Type", std::move(content_type));
  resp.body = std::move(body);
  return resp;
}

}  // namespace privedit::net
