#include "privedit/sim/config.hpp"

#include <charconv>
#include <vector>

#include "privedit/util/error.hpp"

namespace privedit::sim {
namespace {

std::string_view mode_tag(enc::Mode mode) {
  switch (mode) {
    case enc::Mode::kRecb:
      return "recb";
    case enc::Mode::kRpc:
      return "rpc";
    case enc::Mode::kCoClo:
      return "coclo";
  }
  throw Error(ErrorCode::kInvalidArgument, "sim config: bad mode");
}

enc::Mode mode_from_tag(std::string_view tag) {
  if (tag == "recb") return enc::Mode::kRecb;
  if (tag == "rpc") return enc::Mode::kRpc;
  if (tag == "coclo") return enc::Mode::kCoClo;
  throw ParseError("sim config: unknown mode '" + std::string(tag) + "'");
}

std::uint64_t parse_u64(std::string_view digits, const char* what) {
  std::uint64_t value = 0;
  const auto* begin = digits.data();
  const auto* end = digits.data() + digits.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (digits.empty() || ec != std::errc() || ptr != end) {
    throw ParseError(std::string("sim config: bad ") + what + " '" +
                     std::string(digits) + "'");
  }
  return value;
}

/// Fault probabilities ride as integer permille so the wire form stays
/// locale-proof and short.
std::uint32_t permille(double p) {
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  return static_cast<std::uint32_t>(p * 1000.0 + 0.5);
}

}  // namespace

std::string SimConfig::to_wire() const {
  std::string out;
  out += "mode=";
  out += mode_tag(mode);
  out += ",b=" + std::to_string(block_chars);
  out += ",seed=" + std::to_string(seed);
  out += ",ops=" + std::to_string(ops);
  out += ",init=" + std::to_string(initial_chars);
  out += ",cap=" + std::to_string(max_doc_chars);
  out += ",journal=" + std::to_string(journal ? 1 : 0);
  out += ",persist=" + std::to_string(persist ? 1 : 0);
  out += ",bd=" + std::to_string(delta_saves ? 1 : 0);
  out += ",audit=" + std::to_string(audit ? 1 : 0);
  out += ",retry=" + std::to_string(retry ? 1 : 0);
  out += ",drop=" + std::to_string(permille(faults.drop));
  out += ",truncreq=" + std::to_string(permille(faults.truncate_request));
  out += ",truncresp=" + std::to_string(permille(faults.truncate_response));
  out += ",tamper=" + std::to_string(permille(weights.tamper / 100.0));
  out += ",rollback=" + std::to_string(permille(weights.rollback / 100.0));
  out += ",fork=" + std::to_string(permille(weights.fork / 100.0));
  out += ",crash=" + std::to_string(permille(weights.crash / 100.0));
  out += ",storerot=" + std::to_string(permille(weights.store_rot / 100.0));
  out += ",sh=" + std::to_string(shards);
  out += ",fixdocs=" + std::to_string(fixture_docs);
  out += ",shcrash=" + std::to_string(permille(weights.shard_crash / 100.0));
  out += ",shreb=" + std::to_string(permille(weights.shard_rebalance / 100.0));
  out += ",peredit=" + std::to_string(permille(weights.peer_edit / 100.0));
  out += ",equiv=" + std::to_string(permille(weights.equivocate / 100.0));
  out += ",wsup=" + std::to_string(permille(weights.witness_suppress / 100.0));
  out += ",replay=" + std::to_string(permille(weights.replay / 100.0));
  out += ",mutation=" + std::to_string(static_cast<int>(mutation));
  out += ",offline=" + std::to_string(offline ? 1 : 0);
  out += ",strict=" + std::to_string(strict ? 1 : 0);
  out += ",opint=" + std::to_string(op_interval_us);
  if (!outages.empty()) {
    // start:end:kind:intensity-permille, windows joined by '+' (',' is the
    // field separator and ';' needs shell quoting in repro commands).
    out += ",outage=";
    bool first = true;
    for (const net::OutageWindow& w : outages.windows) {
      if (!first) out += '+';
      first = false;
      out += std::to_string(w.start_us) + ':' + std::to_string(w.end_us) +
             ':' + std::to_string(static_cast<int>(w.kind)) + ':' +
             std::to_string(permille(w.intensity));
    }
  }
  return out;
}

SimConfig SimConfig::parse(std::string_view wire) {
  SimConfig config;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= wire.size(); ++i) {
    if (i != wire.size() && wire[i] != ',') continue;
    const std::string_view field = wire.substr(start, i - start);
    start = i + 1;
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      throw ParseError("sim config: field without '=': " + std::string(field));
    }
    const std::string_view key = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
    if (key == "mode") {
      config.mode = mode_from_tag(value);
    } else if (key == "b") {
      config.block_chars = parse_u64(value, "block size");
    } else if (key == "seed") {
      config.seed = parse_u64(value, "seed");
    } else if (key == "ops") {
      config.ops = parse_u64(value, "op count");
    } else if (key == "init") {
      config.initial_chars = parse_u64(value, "initial chars");
    } else if (key == "cap") {
      config.max_doc_chars = parse_u64(value, "doc cap");
    } else if (key == "journal") {
      config.journal = parse_u64(value, "journal flag") != 0;
    } else if (key == "persist") {
      config.persist = parse_u64(value, "persist flag") != 0;
    } else if (key == "bd") {
      config.delta_saves = parse_u64(value, "delta-saves flag") != 0;
    } else if (key == "audit") {
      config.audit = parse_u64(value, "audit flag") != 0;
    } else if (key == "retry") {
      config.retry = parse_u64(value, "retry flag") != 0;
    } else if (key == "drop") {
      config.faults.drop = parse_u64(value, "drop permille") / 1000.0;
    } else if (key == "truncreq") {
      config.faults.truncate_request =
          parse_u64(value, "truncate permille") / 1000.0;
    } else if (key == "truncresp") {
      config.faults.truncate_response =
          parse_u64(value, "truncate permille") / 1000.0;
    } else if (key == "tamper") {
      config.weights.tamper = parse_u64(value, "tamper permille") / 10.0;
    } else if (key == "rollback") {
      config.weights.rollback = parse_u64(value, "rollback permille") / 10.0;
    } else if (key == "fork") {
      config.weights.fork = parse_u64(value, "fork permille") / 10.0;
    } else if (key == "crash") {
      config.weights.crash = parse_u64(value, "crash permille") / 10.0;
    } else if (key == "storerot") {
      config.weights.store_rot =
          parse_u64(value, "store-rot permille") / 10.0;
    } else if (key == "sh") {
      config.shards = parse_u64(value, "shard count");
    } else if (key == "fixdocs") {
      config.fixture_docs = parse_u64(value, "fixture docs");
    } else if (key == "shcrash") {
      config.weights.shard_crash =
          parse_u64(value, "shard-crash permille") / 10.0;
    } else if (key == "shreb") {
      config.weights.shard_rebalance =
          parse_u64(value, "shard-rebalance permille") / 10.0;
    } else if (key == "peredit") {
      config.weights.peer_edit = parse_u64(value, "peer-edit permille") / 10.0;
    } else if (key == "equiv") {
      config.weights.equivocate =
          parse_u64(value, "equivocate permille") / 10.0;
    } else if (key == "wsup") {
      config.weights.witness_suppress =
          parse_u64(value, "witness-suppress permille") / 10.0;
    } else if (key == "replay") {
      config.weights.replay = parse_u64(value, "replay permille") / 10.0;
    } else if (key == "mutation") {
      config.mutation = static_cast<Mutation>(parse_u64(value, "mutation"));
    } else if (key == "offline") {
      config.offline = parse_u64(value, "offline flag") != 0;
    } else if (key == "strict") {
      config.strict = parse_u64(value, "strict flag") != 0;
    } else if (key == "opint") {
      config.op_interval_us = parse_u64(value, "op interval");
    } else if (key == "outage") {
      std::size_t wstart = 0;
      for (std::size_t j = 0; j <= value.size(); ++j) {
        if (j != value.size() && value[j] != '+') continue;
        const std::string_view win = value.substr(wstart, j - wstart);
        wstart = j + 1;
        if (win.empty()) continue;
        std::vector<std::string_view> parts;
        std::size_t pstart = 0;
        for (std::size_t k = 0; k <= win.size(); ++k) {
          if (k != win.size() && win[k] != ':') continue;
          parts.push_back(win.substr(pstart, k - pstart));
          pstart = k + 1;
        }
        if (parts.size() != 4) {
          throw ParseError("sim config: bad outage window '" +
                           std::string(win) + "'");
        }
        net::OutageWindow w;
        w.start_us = parse_u64(parts[0], "outage start");
        w.end_us = parse_u64(parts[1], "outage end");
        w.kind = static_cast<net::OutageKind>(parse_u64(parts[2], "outage kind"));
        w.intensity = parse_u64(parts[3], "outage intensity") / 1000.0;
        config.outages.windows.push_back(w);
      }
    } else {
      throw ParseError("sim config: unknown key '" + std::string(key) + "'");
    }
  }
  return config;
}

}  // namespace privedit::sim
