// Primitive throughput: AES-128, the 32-byte wide-block cipher, SHA-256,
// HMAC and the CTR-DRBG. Context for every other number in the harness —
// and the measurement behind the "native vs 2009-JavaScript" scaling
// argument in EXPERIMENTS.md (the paper's SJCL-based prototype encrypted
// at ~10 kB/s).

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.hpp"
#include "privedit/crypto/aes.hpp"
#include "privedit/crypto/aes_engine.hpp"
#include "privedit/crypto/aes_fast.hpp"
#include "privedit/crypto/aes_ni.hpp"
#include "privedit/crypto/hmac.hpp"
#include "privedit/crypto/sha256.hpp"
#include "privedit/crypto/wide_block.hpp"
#include "privedit/util/error.hpp"

namespace {

using namespace privedit;
using namespace privedit::bench;

void BM_Aes128EncryptBlock(benchmark::State& state) {
  crypto::Aes128 aes(Bytes(16, 0x11));
  Bytes block(16, 0x22);
  for (auto _ : state) {
    aes.encrypt_block(block, block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Aes128EncryptBlock);

void BM_Aes128DecryptBlock(benchmark::State& state) {
  crypto::Aes128 aes(Bytes(16, 0x11));
  Bytes block(16, 0x22);
  for (auto _ : state) {
    aes.decrypt_block(block, block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Aes128DecryptBlock);

void BM_Aes128KeySchedule(benchmark::State& state) {
  Bytes key(16, 0x33);
  for (auto _ : state) {
    crypto::Aes128 aes(key);
    benchmark::DoNotOptimize(&aes);
  }
}
BENCHMARK(BM_Aes128KeySchedule);

void BM_Aes128FastEncryptBlock(benchmark::State& state) {
  crypto::Aes128Fast aes(Bytes(16, 0x11));
  Bytes block(16, 0x22);
  for (auto _ : state) {
    aes.encrypt_block(block, block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Aes128FastEncryptBlock);

void BM_Aes128FastDecryptBlock(benchmark::State& state) {
  crypto::Aes128Fast aes(Bytes(16, 0x11));
  Bytes block(16, 0x22);
  for (auto _ : state) {
    aes.decrypt_block(block, block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Aes128FastDecryptBlock);

#if PRIVEDIT_HAVE_AESNI
void BM_Aes128NiEncryptBlock(benchmark::State& state) {
  if (!crypto::aesni_cpu_supported()) {
    state.SkipWithError("CPU lacks AES-NI");
    return;
  }
  crypto::Aes128Ni aes(Bytes(16, 0x11));
  Bytes block(16, 0x22);
  for (auto _ : state) {
    aes.encrypt_block(block, block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Aes128NiEncryptBlock);

void BM_Aes128NiDecryptBlock(benchmark::State& state) {
  if (!crypto::aesni_cpu_supported()) {
    state.SkipWithError("CPU lacks AES-NI");
    return;
  }
  crypto::Aes128Ni aes(Bytes(16, 0x11));
  Bytes block(16, 0x22);
  for (auto _ : state) {
    aes.decrypt_block(block, block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Aes128NiDecryptBlock);
#endif  // PRIVEDIT_HAVE_AESNI

// Batch throughput per backend. Independent blocks let AES-NI pipeline
// 8-wide, so the batch numbers — not the serial in-place ones above — are
// what the scheme hot paths actually see. The in-place single-block benches
// keep a loop-carried dependency by design (they measure latency); these
// measure throughput and need the explicit sink to be DCE-proof.
void BM_AesBackendBatchEncrypt(benchmark::State& state) {
  const auto backend = static_cast<crypto::AesBackend>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  std::unique_ptr<crypto::Aes128Engine> aes;
  try {
    aes = std::make_unique<crypto::Aes128Engine>(Bytes(16, 0x11), backend);
  } catch (const CryptoError&) {
    state.SkipWithError("backend unavailable on this CPU");
    return;
  }
  Bytes in(16 * n, 0x22), out(16 * n);
  for (auto _ : state) {
    aes->encrypt_blocks(in, out, n);
    sink_buffer(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(16 * n));
  state.SetLabel(std::string(crypto::aes_backend_name(aes->backend())));
}
BENCHMARK(BM_AesBackendBatchEncrypt)
    ->Args({static_cast<int>(crypto::AesBackend::kFast), 64})
    ->Args({static_cast<int>(crypto::AesBackend::kAesNi), 1})
    ->Args({static_cast<int>(crypto::AesBackend::kAesNi), 8})
    ->Args({static_cast<int>(crypto::AesBackend::kAesNi), 64})
    ->Args({static_cast<int>(crypto::AesBackend::kAesNi), 256});

void BM_AesEngineDispatchedEncrypt(benchmark::State& state) {
  crypto::Aes128Engine aes(Bytes(16, 0x11));
  Bytes block(16, 0x22);
  for (auto _ : state) {
    aes.encrypt_block(block, block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
  state.SetLabel(std::string(crypto::aes_backend_name(aes.backend())));
}
BENCHMARK(BM_AesEngineDispatchedEncrypt);

void BM_WideBlockEncryptBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  crypto::WideBlock wide(Bytes(16, 0x44));
  Bytes in(32 * n, 0x55), out(32 * n);
  for (auto _ : state) {
    wide.encrypt_blocks(in, out, n);
    sink_buffer(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(32 * n));
}
BENCHMARK(BM_WideBlockEncryptBatch)->Arg(1)->Arg(8)->Arg(64);

void BM_WideBlockEncrypt(benchmark::State& state) {
  crypto::WideBlock wide(Bytes(16, 0x44));
  Bytes block(32, 0x55);
  for (auto _ : state) {
    wide.encrypt_block(block, block);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_WideBlockEncrypt);

// SHA-256 on the dispatched backend and forced portable. 852,118 bytes is
// the 131,072-char RPC container that the journal checksum and the ack hash
// each read once per keystroke.
void sha256_bench(benchmark::State& state, crypto::ShaBackend backend) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Bytes data(n, 0x66);
  for (auto _ : state) {
    crypto::Sha256 h(backend);
    h.update(data);
    benchmark::DoNotOptimize(h.finish());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(std::string(crypto::sha_backend_name(backend)));
}

void BM_Sha256(benchmark::State& state) {
  sha256_bench(state, crypto::Sha256::dispatch_backend());
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536)->Arg(852118);

void BM_Sha256Portable(benchmark::State& state) {
  sha256_bench(state, crypto::ShaBackend::kPortable);
}
BENCHMARK(BM_Sha256Portable)->Arg(64)->Arg(4096)->Arg(65536)->Arg(852118);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key(32, 0x77);
  Bytes data(1024, 0x88);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_HmacSha256);

// Arg = crypto::ShaBackend (0 portable, 1 SHA-NI).
void BM_Pbkdf2_10k(benchmark::State& state) {
  const auto backend = static_cast<crypto::ShaBackend>(state.range(0));
  if (!crypto::Sha256::backend_available(backend)) {
    state.SkipWithError("backend unavailable on this CPU");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::pbkdf2_hmac_sha256(
        to_bytes("password"), Bytes(16, 0x99), 10'000, 32, backend));
  }
  state.SetLabel(std::string(crypto::sha_backend_name(backend)));
}
BENCHMARK(BM_Pbkdf2_10k)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_CtrDrbgFill(benchmark::State& state) {
  auto drbg = crypto::CtrDrbg::from_seed(1);
  Bytes buf(4096);
  for (auto _ : state) {
    drbg->fill(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_CtrDrbgFill);

void print_js_scaling() {
  // Measure bulk AES throughput and relate it to the paper's 9.1-11.8 kB/s.
  crypto::Aes128 aes(Bytes(16, 0x11));
  Bytes block(16, 0x22);
  int iters = 400'000;
  const double secs = time_seconds([&] {
    for (int i = 0; i < iters; ++i) aes.encrypt_block(block, block);
    sink_buffer(block.data());  // the loop's output is otherwise dead
  });
  const double mbps = 16.0 * iters / secs / 1e6;
  print_title("Native-vs-2009-JavaScript scaling context");
  std::printf(
      "Software AES-128 here: %.1f MB/s. The paper's SJCL-in-Firefox-3\n"
      "prototype achieved 9.1-11.8 kB/s end to end — a factor of ~%.0fx.\n"
      "EXPERIMENTS.md uses this to relate native macro numbers to Fig 5/8.\n",
      mbps, mbps * 1e6 / 10'500.0);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_js_scaling();
  return 0;
}
