#pragma once
// Client-side retry with exponential backoff and decorrelated jitter.
//
// The mediator sits on every request between the editor and the cloud, so
// a transient connect refusal or a connection dying mid-message must not
// surface to the user as a failed save. RetryPolicy decides which
// FaultKinds are safe to retry and how long to back off; RetryChannel is a
// net::Channel decorator applying the policy to any underlying channel
// (TcpChannel applies the same policy internally to the real-socket path).
//
// Jitter is *decorrelated* (AWS-style): each retry sleeps a uniform draw
// from [base, 3 * previous_sleep], capped at max_backoff_us. The earlier
// [b*(1-jitter), b] band kept every client that observed the same failure
// instant inside the same narrow window, so their retries re-arrived as
// synchronized waves; decorrelation spreads the reattempts across the
// whole envelope and the spread grows with each round.
//
// Overload signalling: a 503 response carrying Retry-After is the server
// *asking* for a delay (admission control, shed queue). When
// `retry_on_503` is set, RetryChannel treats such responses as retryable
// and waits max(backoff, Retry-After) — capped by retry_after_cap_us so a
// hostile or confused server cannot park a client forever.
//
// Safety note: a refused connect means the request never reached the
// server, so retrying is always safe. A truncated/reset *response* means
// the server may already have applied the request; retrying is only safe
// for idempotent traffic (full saves, opens, reads). `retry_truncated`
// gates that class and defaults to on, matching the simulated services —
// full docContents saves are idempotent, anchored delta saves are refused
// (412) once their base container moved, and delta saves carry a base
// revision the server reconciles (strict-revision mode rejects stale
// resends outright, making them safe).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "privedit/net/http.hpp"
#include "privedit/net/socket.hpp"
#include "privedit/net/transport.hpp"
#include "privedit/util/random.hpp"

namespace privedit::net {

/// Header that marks a request as a circuit-breaker probe: layers below
/// (RetryChannel, TcpChannel) make exactly one attempt for it, so a
/// half-open probe costs one wire request per cool-down, not a retry burst.
inline constexpr const char* kProbeHeader = "X-Privedit-Probe";

struct RetryPolicy {
  int max_attempts = 4;                  // total tries, including the first
  std::uint64_t base_backoff_us = 2000;  // floor of every backoff draw
  double multiplier = 2.0;               // exponential growth when jitter off
  std::uint64_t max_backoff_us = 250'000;
  double jitter = 0.5;          // > 0 enables decorrelated jitter
  bool retry_truncated = true;  // retry kTruncated / kReset responses
  bool retry_on_503 = false;    // retry 503 responses (admission/overload)
  std::uint64_t retry_after_cap_us = 2'000'000;  // Retry-After honor ceiling

  /// No retries at all (single attempt).
  static RetryPolicy none() {
    RetryPolicy p;
    p.max_attempts = 1;
    return p;
  }

  /// The next backoff given the previous one (0 = first retry).
  /// jitter > 0: uniform in [base, min(3*prev, cap)] (decorrelated jitter);
  /// jitter == 0: deterministic exponential prev*multiplier, capped.
  std::uint64_t next_backoff_us(std::uint64_t prev_us, RandomSource& rng) const;

  /// True if a failure of this kind should be retried under this policy.
  bool retryable(FaultKind kind) const;

  /// How long to honor `retry_after_us` from a 503, merged with the
  /// computed backoff: max(backoff, min(retry_after, cap)).
  std::uint64_t overload_wait_us(std::uint64_t backoff_us,
                                 std::optional<std::uint64_t> retry_after_us)
      const;
};

/// Parses a Retry-After header (delta-seconds form only; HTTP-date is not
/// spoken by any simulated service) into microseconds. nullopt when the
/// header is absent or malformed.
std::optional<std::uint64_t> retry_after_us(const HttpResponse& response);

/// net::Channel decorator that retries the wrapped channel's round_trip on
/// retryable TransportErrors (and, when enabled, on 503 overload
/// responses, honoring Retry-After). Backoff is charged to the SimClock
/// when one is supplied (deterministic tests/benches) and slept for real
/// otherwise. Requests carrying kProbeHeader are never retried.
class RetryChannel final : public Channel {
 public:
  RetryChannel(Channel* inner, RetryPolicy policy,
               std::unique_ptr<RandomSource> rng, SimClock* clock = nullptr);

  HttpResponse round_trip(const HttpRequest& request) override;

  struct Counters {
    std::size_t attempts = 0;   // every call into the inner channel
    std::size_t retries = 0;    // attempts beyond the first per request
    std::size_t giveups = 0;    // requests that exhausted the policy
    std::size_t overload_retries = 0;  // retries caused by 503 responses
    std::uint64_t backoff_us = 0;  // total backoff charged/slept
  };
  const Counters& counters() const { return counters_; }

 private:
  void wait(std::uint64_t us);

  Channel* inner_;
  RetryPolicy policy_;
  std::unique_ptr<RandomSource> rng_;
  SimClock* clock_;
  Counters counters_;
};

}  // namespace privedit::net
