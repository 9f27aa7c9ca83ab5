// Microbenchmark of the SIMD kernel layer (util/bitvector_kernels.h).
//
// Times every kernel available on this machine on the four hot primitives
// (count, and_count, assign_and_count, and_many_count) at slice sizes
// bracketing the paper's workloads, plus the pre-kernel baseline for a
// k-way CountItemSet: k-1 scalar pairwise AND sweeps followed by a count.
// The headline number is the speedup of the native fused and_many_count
// over that baseline. A crc32 section times the load path's checksum
// (util/crc32.h, slicing-by-8) at a block, a segment and a paper-scale index
// file, next to the byte-at-a-time table CRC it replaced.
//
// Emits BENCH_kernels.json (path overridable as argv[1]) for the CI
// artifact, alongside a human-readable table on stdout.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/bitvector.h"
#include "util/bitvector_kernels.h"
#include "util/crc32.h"
#include "util/rng.h"

using namespace bbsmine;
using Word = kernels::Word;
using WordVector = BitVector::WordVector;

namespace {

// Sink defeating dead-code elimination of the benchmarked counts.
volatile uint64_t g_sink = 0;

WordVector RandomWords(size_t n, Rng* rng) {
  WordVector words(n);
  for (Word& w : words) w = rng->Next();
  return words;
}

/// Best-of-`kReps` wall time of `fn()` with a calibrated inner loop, in
/// nanoseconds per call.
template <typename Fn>
double TimeNs(Fn&& fn) {
  constexpr int kReps = 5;
  constexpr double kMinBatchNs = 2e6;
  // Calibrate the batch size so one batch runs long enough to time.
  uint64_t batch = 1;
  for (;;) {
    auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < batch; ++i) fn();
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (ns >= kMinBatchNs || batch >= (1u << 24)) break;
    batch *= 4;
  }
  double best = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < batch; ++i) fn();
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    best = std::min(best, ns / static_cast<double>(batch));
  }
  return best;
}

/// The byte-at-a-time table CRC-32 that util/crc32 used before
/// slicing-by-8: the baseline of the crc32 section.
uint32_t BytewiseCrc32(const uint8_t* p, size_t len) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  uint32_t crc = ~0u;
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xffu];
  }
  return ~crc;
}

struct CrcResult {
  size_t bytes;
  double ns;
  double bytewise_ns;
  double GiBPerSec() const {
    return static_cast<double>(bytes) / (ns * 1e-9) /
           (1024.0 * 1024.0 * 1024.0);
  }
};

struct OpResult {
  std::string op;
  size_t bits;
  double ns;
  /// Words streamed per call (for bandwidth: reads + writes, 8 B each).
  double words_moved;
  double GiBPerSec() const {
    return words_moved * 8.0 / (ns * 1e-9) / (1024.0 * 1024.0 * 1024.0);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  const size_t kSizesBits[] = {1u << 14, 1u << 17, 1u << 20};
  constexpr size_t kManyK = 8;

  Rng rng(2002);
  const char* default_kernel = kernels::ActiveName();
  std::printf("default kernel on this host: %s\n\n", default_kernel);

  struct KernelSection {
    std::string kernel;
    std::vector<OpResult> results;
  };
  std::vector<KernelSection> sections;

  // Per-size operand pools, shared across kernels so every kernel chews the
  // same bytes.
  struct Operands {
    size_t n;
    WordVector a, b, dst;
    std::vector<WordVector> many;
    std::vector<const Word*> srcs;
  };
  std::vector<Operands> pools;
  for (size_t bits : kSizesBits) {
    Operands ops;
    ops.n = bits / 64;
    ops.a = RandomWords(ops.n, &rng);
    ops.b = RandomWords(ops.n, &rng);
    ops.dst.resize(ops.n);
    for (size_t i = 0; i < kManyK; ++i) {
      ops.many.push_back(RandomWords(ops.n, &rng));
      // Dense operands: bias toward ones so the k-way AND rarely hits the
      // all-zero block short-circuit and we time the full streaming cost.
      for (Word& w : ops.many.back()) w |= rng.Next() | rng.Next();
    }
    for (const WordVector& v : ops.many) ops.srcs.push_back(v.data());
    pools.push_back(std::move(ops));
  }

  for (const char* name : kernels::AvailableNames()) {
    if (!kernels::SetActive(name)) continue;
    KernelSection section{name, {}};
    std::printf("--- kernel %s ---\n", name);
    std::printf("%-18s %10s %12s %10s\n", "op", "bits", "ns/call", "GiB/s");
    for (size_t si = 0; si < pools.size(); ++si) {
      Operands& ops = pools[si];
      const size_t bits = kSizesBits[si];
      const double n = static_cast<double>(ops.n);

      OpResult r;
      r = {"count", bits,
           TimeNs([&] { g_sink = g_sink + kernels::Count(ops.a.data(), ops.n); }), n};
      section.results.push_back(r);
      r = {"and_count", bits, TimeNs([&] {
             g_sink = g_sink +
                      kernels::AndCount(ops.dst.data(), ops.a.data(), ops.n);
           }),
           3 * n};
      section.results.push_back(r);
      r = {"assign_and_count", bits, TimeNs([&] {
             g_sink = g_sink + kernels::AssignAndCount(ops.dst.data(), ops.a.data(),
                                               ops.b.data(), ops.n);
           }),
           3 * n};
      section.results.push_back(r);
      r = {"and_many_count", bits, TimeNs([&] {
             g_sink = g_sink + kernels::AndManyCount(ops.dst.data(), ops.srcs.data(),
                                             kManyK, ops.n);
           }),
           static_cast<double>(kManyK + 1) * n};
      section.results.push_back(r);

      for (size_t i = section.results.size() - 4; i < section.results.size();
           ++i) {
        const OpResult& row = section.results[i];
        std::printf("%-18s %10zu %12.1f %10.2f\n", row.op.c_str(), row.bits,
                    row.ns, row.GiBPerSec());
      }
    }
    std::printf("\n");
    sections.push_back(std::move(section));
  }

  // Headline: fused multi-way AND+count on the host's default kernel vs the
  // pre-kernel CountItemSet inner loop (copy + k-1 scalar pairwise ANDs +
  // final count) on the largest size.
  Operands& big = pools.back();
  const size_t big_bits = kSizesBits[sizeof(kSizesBits) / sizeof(size_t) - 1];
  kernels::SetActive("scalar");
  const kernels::KernelOps& scalar = kernels::Active();
  double pairwise_ns = TimeNs([&] {
    std::copy(big.many[0].begin(), big.many[0].end(), big.dst.begin());
    for (size_t i = 1; i < kManyK; ++i) {
      scalar.and_words(big.dst.data(), big.srcs[i], big.n);
    }
    g_sink = g_sink + scalar.count(big.dst.data(), big.n);
  });
  kernels::SetActive(default_kernel);
  double fused_ns = TimeNs([&] {
    g_sink = g_sink + kernels::AndManyCount(big.dst.data(), big.srcs.data(), kManyK,
                                    big.n);
  });
  double speedup = pairwise_ns / fused_ns;
  std::printf("k-way CountItemSet inner loop, k=%zu, %zu bits:\n", kManyK,
              big_bits);
  std::printf("  scalar pairwise baseline: %12.1f ns\n", pairwise_ns);
  std::printf("  %s and_many_count:   %12.1f ns\n", default_kernel, fused_ns);
  std::printf("  speedup: %.2fx\n", speedup);

  // CRC-32 over a 4 KiB block, a 1 MiB segment and a 20 MiB file (the
  // mine-paper index is 20 MB); every load verifies one of these.
  std::vector<CrcResult> crc_results;
  {
    const size_t kCrcBytes[] = {4u << 10, 1u << 20, 20u << 20};
    std::vector<uint8_t> data(kCrcBytes[2]);
    for (uint8_t& b : data) b = static_cast<uint8_t>(rng.Next());
    std::printf("\ncrc32 (slicing-by-8 vs bytewise table):\n");
    std::printf("%10s %12s %10s %14s %8s\n", "bytes", "ns/call", "GiB/s",
                "bytewise ns", "speedup");
    for (size_t bytes : kCrcBytes) {
      CrcResult r{bytes,
                  TimeNs([&] { g_sink = g_sink + Crc32(data.data(), bytes); }),
                  TimeNs([&] {
                    g_sink = g_sink + BytewiseCrc32(data.data(), bytes);
                  })};
      std::printf("%10zu %12.1f %10.2f %14.1f %7.2fx\n", r.bytes, r.ns,
                  r.GiBPerSec(), r.bytewise_ns, r.bytewise_ns / r.ns);
      crc_results.push_back(r);
    }
  }

  FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path);
    return 1;
  }
  std::fprintf(json, "{\n  \"schema_version\": 1,\n");
  std::fprintf(json, "  \"kind\": \"bbsmine_kernels\",\n");
  std::fprintf(json, "  \"default_kernel\": \"%s\",\n", default_kernel);
  std::fprintf(json, "  \"kernels\": [\n");
  for (size_t s = 0; s < sections.size(); ++s) {
    std::fprintf(json, "    {\"kernel\": \"%s\", \"results\": [\n",
                 sections[s].kernel.c_str());
    for (size_t i = 0; i < sections[s].results.size(); ++i) {
      const OpResult& row = sections[s].results[i];
      std::fprintf(json,
                   "      {\"op\": \"%s\", \"bits\": %zu, \"ns_per_call\": "
                   "%.1f, \"gib_per_s\": %.2f}%s\n",
                   row.op.c_str(), row.bits, row.ns, row.GiBPerSec(),
                   i + 1 < sections[s].results.size() ? "," : "");
    }
    std::fprintf(json, "    ]}%s\n", s + 1 < sections.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json,
               "  \"and_many_vs_scalar_pairwise\": {\"k\": %zu, \"bits\": "
               "%zu, \"scalar_pairwise_ns\": %.1f, \"fused_kernel\": \"%s\", "
               "\"fused_ns\": %.1f, \"speedup\": %.2f},\n",
               kManyK, big_bits, pairwise_ns, default_kernel, fused_ns,
               speedup);
  std::fprintf(json,
               "  \"crc32\": {\"impl\": \"slicing-by-8\", \"results\": [\n");
  for (size_t i = 0; i < crc_results.size(); ++i) {
    const CrcResult& row = crc_results[i];
    std::fprintf(json,
                 "    {\"bytes\": %zu, \"ns_per_call\": %.1f, "
                 "\"gib_per_s\": %.2f, \"bytewise_ns_per_call\": %.1f, "
                 "\"speedup\": %.2f}%s\n",
                 row.bytes, row.ns, row.GiBPerSec(), row.bytewise_ns,
                 row.bytewise_ns / row.ns,
                 i + 1 < crc_results.size() ? "," : "");
  }
  std::fprintf(json, "  ]}\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path);
  return 0;
}
