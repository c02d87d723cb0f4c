#pragma once
// Authenticated revision-history records for fork-consistency auditing.
//
// The server in this system is untrusted: it stores ciphertext and a
// revision counter, and PR 2's journal anchor only protects a client
// against being served something older than what *it* acknowledged. A
// malicious server can still *equivocate* — keep two divergent histories
// and show each client the one that hides the other's writes.
//
// The defence is a per-document keyed hash chain (SUNDR-style):
//
//   H_0 = HMAC(K_audit, "genesis" || doc-id)
//   H_i = HMAC(K_audit, H_{i-1} || rev_i || container-CRC_i || client-id_i)
//
// Every save carries its new link as an opaque attribute (`alink=`). The
// server stores links verbatim — it lacks K_audit, so it can replay a
// history clients produced but can never forge or splice one. At open, a
// client recomputes the HMACs over the served chain and checks that its
// own committed head appears in it (prefix compatibility); the final
// link's CRC must match the container actually served.
//
// Cross-client detection rides *witness records*: each client publishes a
// MACed (client, rev, head) triple through the server, and every client
// checks peers' witnesses against its own chain. Two clients whose heads
// are not prefix-compatible have proof of equivocation, delivered by the
// equivocator itself.
//
// This header is pure record format + MAC math (enc layer): no I/O, no
// policy. The state machine that decides rollback vs fork vs equivocation
// lives in extension/audit.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "privedit/util/bytes.hpp"

namespace privedit::enc {

/// One link of the audit chain: the head value after revision `rev` was
/// committed by `client`, binding the container CRC served at that rev.
struct AuditLink {
  std::uint64_t rev = 0;
  std::uint32_t crc = 0;     // crc32 of the full container at this rev
  std::string client;        // writer's client id (X-Privedit-Client)
  Bytes head;                // 32-byte HMAC-SHA256 chain head

  bool operator==(const AuditLink&) const = default;
};

/// The chain as served/stored: a trusted-iff-verified base head (the head
/// value at `base_rev`, before the first stored link) plus the links that
/// follow it. Pruning old links moves the base forward; a client can only
/// verify a chain whose base is at or before its own committed head.
struct AuditChain {
  std::uint64_t base_rev = 0;
  Bytes base_head;
  std::vector<AuditLink> links;

  bool operator==(const AuditChain&) const = default;

  /// Highest revision the chain speaks for.
  std::uint64_t tip_rev() const {
    return links.empty() ? base_rev : links.back().rev;
  }

  /// Head value at exactly `rev`, if the chain covers it.
  std::optional<Bytes> head_at(std::uint64_t rev) const;
};

/// A client's signed claim "my chain head at revision `rev` was `head`",
/// exchanged through the (untrusted) server.
struct AuditWitness {
  std::string client;
  std::uint64_t rev = 0;
  Bytes head;
  Bytes mac;  // HMAC(K_audit, "witness" || client || rev || head)

  bool operator==(const AuditWitness&) const = default;
};

/// Derives the per-document audit key from the user password and document
/// id. Independent of derive_document_keys on purpose: the audit chain
/// must survive content-key rotation, and the server-visible records must
/// not leak anything about the content keys.
Bytes derive_audit_key(const std::string& password, const std::string& doc_id);

/// H_0 for a fresh document.
Bytes genesis_head(ByteView key, const std::string& doc_id);

/// H_i from H_{i-1}: the link HMAC over (prev || rev || crc || client).
Bytes chain_head(ByteView key, ByteView prev_head, std::uint64_t rev,
                 std::uint32_t crc, const std::string& client);

/// Recomputes every link's HMAC from the base head. Returns true iff the
/// whole chain is internally consistent under `key`. A forged or spliced
/// link (anything the server invented) fails here.
bool verify_chain(ByteView key, const AuditChain& chain);

/// Builds a MACed witness record.
AuditWitness make_witness(ByteView key, const std::string& client,
                          std::uint64_t rev, ByteView head);

/// True iff the witness MAC verifies under `key`.
bool verify_witness(ByteView key, const AuditWitness& witness);

// ---- wire format -------------------------------------------------------
//
// Text formats, safe inside urlencoded form values once percent-escaped:
//   link:    <rev>:<crc-hex8>:<client-hex>:<head-hex>
//   chain:   <base_rev>:<base-head-hex>[;<link>;<link>...]
//   witness: <client-hex>:<rev>:<head-hex>:<mac-hex>
// Decoders throw ParseError on any malformed field.

std::string encode_link(const AuditLink& link);
AuditLink decode_link(std::string_view wire);

std::string encode_chain(const AuditChain& chain);
AuditChain decode_chain(std::string_view wire);

/// Appends `link` to `chain` — non-empty encode_chain output holding
/// `links` links — in O(link): the link is encoded onto the end and, past
/// `cap` links, the base rolls forward over the first link, the only one
/// parsed. The result is byte-identical to decode, push, prune, encode.
/// Returns the one-link tail encode_chain({previous tip, {link}}).
std::string append_link(std::string& chain, std::size_t& links,
                        const AuditLink& link, std::size_t cap);

std::string encode_witness(const AuditWitness& witness);
AuditWitness decode_witness(std::string_view wire);

}  // namespace privedit::enc
