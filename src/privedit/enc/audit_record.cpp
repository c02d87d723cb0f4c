#include "privedit/enc/audit_record.hpp"

#include <charconv>

#include "privedit/crypto/hmac.hpp"
#include "privedit/crypto/sha256.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/hex.hpp"

namespace privedit::enc {

namespace {

void append_u64(Bytes& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void append_u32(Bytes& out, std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

std::uint64_t parse_u64(std::string_view field, const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc() || ptr != field.data() + field.size()) {
    throw ParseError(std::string("audit record: bad ") + what);
  }
  return value;
}

std::vector<std::string_view> split(std::string_view wire, char sep) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = wire.find(sep, start);
    if (pos == std::string_view::npos) {
      fields.push_back(wire.substr(start));
      return fields;
    }
    fields.push_back(wire.substr(start, pos - start));
    start = pos + 1;
  }
}

Bytes parse_head(std::string_view field, const char* what) {
  Bytes head = hex_decode(field);
  if (head.size() != crypto::Sha256::kDigestSize) {
    throw ParseError(std::string("audit record: bad ") + what + " length");
  }
  return head;
}

}  // namespace

std::optional<Bytes> AuditChain::head_at(std::uint64_t rev) const {
  if (rev == base_rev) return base_head;
  for (const AuditLink& link : links) {
    if (link.rev == rev) return link.head;
  }
  return std::nullopt;
}

Bytes derive_audit_key(const std::string& password,
                       const std::string& doc_id) {
  // Keyed off a hash of the password (not the document keys) so that audit
  // verification never needs — and never risks exposing — content keys.
  const Bytes pw_hash = crypto::Sha256::hash(as_bytes(password));
  Bytes msg = to_bytes("privedit-audit-v1:");
  append(msg, as_bytes(doc_id));
  return crypto::hmac_sha256(pw_hash, msg);
}

Bytes genesis_head(ByteView key, const std::string& doc_id) {
  Bytes msg = to_bytes("genesis:");
  append(msg, as_bytes(doc_id));
  return crypto::hmac_sha256(key, msg);
}

namespace {

Bytes link_mac(const crypto::HmacSha256& prf, ByteView prev_head,
               std::uint64_t rev, std::uint32_t crc, const std::string& client) {
  Bytes msg(prev_head.begin(), prev_head.end());
  append_u64(msg, rev);
  append_u32(msg, crc);
  append(msg, as_bytes(client));
  return prf.mac(msg);
}

}  // namespace

Bytes chain_head(ByteView key, ByteView prev_head, std::uint64_t rev,
                 std::uint32_t crc, const std::string& client) {
  return link_mac(crypto::HmacSha256(key), prev_head, rev, crc, client);
}

bool verify_chain(ByteView key, const AuditChain& chain) {
  if (chain.base_head.size() != crypto::Sha256::kDigestSize) return false;
  const crypto::HmacSha256 prf(key);  // keyed once for every link
  const Bytes* prev = &chain.base_head;
  std::uint64_t prev_rev = chain.base_rev;
  for (const AuditLink& link : chain.links) {
    if (link.rev <= prev_rev) return false;  // revs must strictly advance
    if (link_mac(prf, *prev, link.rev, link.crc, link.client) != link.head) {
      return false;
    }
    prev = &link.head;
    prev_rev = link.rev;
  }
  return true;
}

namespace {

Bytes witness_mac(ByteView key, const std::string& client, std::uint64_t rev,
                  ByteView head) {
  Bytes msg = to_bytes("witness:");
  append(msg, as_bytes(client));
  append_u64(msg, rev);
  append(msg, head);
  return crypto::hmac_sha256(key, msg);
}

}  // namespace

AuditWitness make_witness(ByteView key, const std::string& client,
                          std::uint64_t rev, ByteView head) {
  AuditWitness w;
  w.client = client;
  w.rev = rev;
  w.head.assign(head.begin(), head.end());
  w.mac = witness_mac(key, client, rev, head);
  return w;
}

bool verify_witness(ByteView key, const AuditWitness& witness) {
  if (witness.head.size() != crypto::Sha256::kDigestSize) return false;
  return witness_mac(key, witness.client, witness.rev, witness.head) ==
         witness.mac;
}

std::string encode_link(const AuditLink& link) {
  return std::to_string(link.rev) + ":" + hex_encode(Bytes{
             static_cast<std::uint8_t>(link.crc >> 24),
             static_cast<std::uint8_t>(link.crc >> 16),
             static_cast<std::uint8_t>(link.crc >> 8),
             static_cast<std::uint8_t>(link.crc)}) +
         ":" + hex_encode(as_bytes(link.client)) + ":" + hex_encode(link.head);
}

AuditLink decode_link(std::string_view wire) {
  const auto fields = split(wire, ':');
  if (fields.size() != 4) throw ParseError("audit link: field count");
  AuditLink link;
  link.rev = parse_u64(fields[0], "link rev");
  const Bytes crc = hex_decode(fields[1]);
  if (crc.size() != 4) throw ParseError("audit link: bad crc");
  link.crc = (static_cast<std::uint32_t>(crc[0]) << 24) |
             (static_cast<std::uint32_t>(crc[1]) << 16) |
             (static_cast<std::uint32_t>(crc[2]) << 8) |
             static_cast<std::uint32_t>(crc[3]);
  link.client = to_string(hex_decode(fields[2]));
  link.head = parse_head(fields[3], "link head");
  return link;
}

std::string encode_chain(const AuditChain& chain) {
  std::string wire =
      std::to_string(chain.base_rev) + ":" + hex_encode(chain.base_head);
  for (const AuditLink& link : chain.links) {
    wire += ";";
    wire += encode_link(link);
  }
  return wire;
}

AuditChain decode_chain(std::string_view wire) {
  const auto parts = split(wire, ';');
  const auto base = split(parts[0], ':');
  if (base.size() != 2) throw ParseError("audit chain: bad base");
  AuditChain chain;
  chain.base_rev = parse_u64(base[0], "base rev");
  chain.base_head = parse_head(base[1], "base head");
  for (std::size_t i = 1; i < parts.size(); ++i) {
    chain.links.push_back(decode_link(parts[i]));
  }
  return chain;
}

namespace {

/// The base form `<rev>:<head-hex>` of one canonical link wire.
std::string link_as_base(std::string_view link) {
  return std::string(link.substr(0, link.find(':') + 1))
      .append(link.substr(link.rfind(':') + 1));
}

}  // namespace

std::string append_link(std::string& chain, std::size_t& links,
                        const AuditLink& link, std::size_t cap) {
  const std::size_t last = chain.rfind(';');
  std::string tail = last == std::string::npos
                         ? chain
                         : link_as_base(std::string_view(chain).substr(last + 1));
  const std::string wire = encode_link(link);
  tail += ';';
  tail += wire;
  chain += ';';
  chain += wire;
  ++links;
  while (links > cap) {
    const std::size_t first = chain.find(';');
    const std::size_t second = chain.find(';', first + 1);
    chain.replace(0, second,
                  link_as_base(std::string_view(chain).substr(
                      first + 1, second - first - 1)));
    --links;
  }
  return tail;
}

std::string encode_witness(const AuditWitness& witness) {
  return hex_encode(as_bytes(witness.client)) + ":" +
         std::to_string(witness.rev) + ":" + hex_encode(witness.head) + ":" +
         hex_encode(witness.mac);
}

AuditWitness decode_witness(std::string_view wire) {
  const auto fields = split(wire, ':');
  if (fields.size() != 4) throw ParseError("audit witness: field count");
  AuditWitness w;
  w.client = to_string(hex_decode(fields[0]));
  w.rev = parse_u64(fields[1], "witness rev");
  w.head = parse_head(fields[2], "witness head");
  w.mac = hex_decode(fields[3]);
  if (w.mac.size() != crypto::Sha256::kDigestSize) {
    throw ParseError("audit witness: bad mac length");
  }
  return w;
}

}  // namespace privedit::enc
