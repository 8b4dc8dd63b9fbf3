// Ablation: authenticated-dictionary design choices (DESIGN.md §3).
//
//  1. Proof size and prove/verify latency vs dictionary size (log growth).
//  2. Batch insert vs one-at-a-time insert (the rebuild amortization).
//  3. Freshness chain length m: CA re-sign cost vs statement cost.
//
// Numbers (ops/sec, ns/op, rehash counts) are also written to BENCH_dict.json
// so successive PRs have a machine-readable perf trajectory.
#include <chrono>
#include <cstdio>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "crypto/hash_chain.hpp"
#include "dict/dictionary.hpp"

using namespace ritm;

namespace {
double us_per_op(std::chrono::steady_clock::duration d, std::size_t ops) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             d)
             .count() /
         double(ops);
}
}  // namespace

int main() {
  Rng rng(3);

  // Collected for BENCH_dict.json.
  double prove_us_100k = 0, verify_us_100k = 0, proof_bytes_100k = 0;
  double batch_ms_final = 0, inc_ms_final = 0;
  double tree_ms_final = 0;
  std::uint64_t tree_rehashes = 0;
  std::size_t tree_proof_bytes = 0;

  std::printf("== ablation 1: proof size / latency vs dictionary size ==\n\n");
  Table t1({"n", "proof bytes", "prove (us)", "verify (us)", "depth"});
  for (std::uint64_t n : {1'000ull, 10'000ull, 100'000ull, 1'000'000ull}) {
    dict::Dictionary d;
    std::vector<cert::SerialNumber> serials;
    serials.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      serials.push_back(cert::SerialNumber::from_uint(i * 2 + 1, 4));
    }
    d.insert(serials);
    (void)d.root();

    constexpr int kProbes = 500;
    std::vector<cert::SerialNumber> probes;
    for (int i = 0; i < kProbes; ++i) {
      probes.push_back(cert::SerialNumber::from_uint(rng.uniform(2 * n), 4));
    }

    Summary size;
    auto start = std::chrono::steady_clock::now();
    for (const auto& p : probes) {
      auto proof = d.prove(p);
      size.add(double(proof.encode().size()));
    }
    const double prove_us =
        us_per_op(std::chrono::steady_clock::now() - start, kProbes);

    const auto proof = d.prove(probes[0]);
    start = std::chrono::steady_clock::now();
    for (int i = 0; i < kProbes; ++i) {
      if (!dict::verify_proof(proof, probes[0], d.root(), d.size())) {
        return 1;
      }
    }
    const double verify_us =
        us_per_op(std::chrono::steady_clock::now() - start, kProbes);

    const auto depth = proof.left ? proof.left->path.size()
                                  : (proof.leaf ? proof.leaf->path.size() : 0);
    if (n == 100'000) {
      prove_us_100k = prove_us;
      verify_us_100k = verify_us;
      proof_bytes_100k = size.mean();
    }
    t1.add_row({Table::num(n), Table::num(size.mean(), 0),
                Table::num(prove_us, 1), Table::num(verify_us, 1),
                Table::num(std::uint64_t(depth))});
  }
  std::printf("%s\n", t1.render().c_str());

  std::printf("== ablation 2: batch vs incremental insert (10k entries) ==\n\n");
  {
    std::vector<cert::SerialNumber> serials;
    for (std::uint64_t i = 0; i < 10'000; ++i) {
      serials.push_back(cert::SerialNumber::from_uint(i * 3 + 1, 4));
    }
    Table t2({"strategy", "total ms", "rebuilds"});

    auto start = std::chrono::steady_clock::now();
    dict::Dictionary batch;
    batch.insert(serials);
    (void)batch.root();
    const double batch_ms =
        us_per_op(std::chrono::steady_clock::now() - start, 1) / 1000.0;
    t2.add_row({"one batch", Table::num(batch_ms, 1), "1"});

    start = std::chrono::steady_clock::now();
    dict::Dictionary incremental;
    for (std::size_t i = 0; i < serials.size(); i += 100) {
      incremental.insert(std::vector<cert::SerialNumber>(
          serials.begin() + std::ptrdiff_t(i),
          serials.begin() + std::ptrdiff_t(i + 100)));
      (void)incremental.root();  // an RA rebuilds per issuance
    }
    const double inc_ms =
        us_per_op(std::chrono::steady_clock::now() - start, 1) / 1000.0;
    t2.add_row({"100-entry issuances", Table::num(inc_ms, 1), "100"});

    if (batch.root() != incremental.root()) {
      std::printf("ROOT MISMATCH\n");
      return 1;
    }
    batch_ms_final = batch_ms;
    inc_ms_final = inc_ms;
    std::printf("%s\n", t2.render().c_str());
  }

  std::printf("== ablation 2b: issuance stream into a 50k dictionary ==\n\n");
  {
    // Stream a Heartbleed-hour of issuances (120 batches of 50) into a
    // 50k-entry dictionary: the incremental dirty-range rebuild rehashes
    // only the spines above each batch, not the whole O(n) tree.
    constexpr std::uint64_t kBase = 50'000;
    std::vector<cert::SerialNumber> base;
    for (std::uint64_t i = 0; i < kBase; ++i) {
      base.push_back(cert::SerialNumber::from_uint(i * 5 + 1, 4));
    }

    dict::Dictionary tree;
    tree.insert(base);
    (void)tree.root();

    auto batch_at = [](std::uint64_t k) {
      std::vector<cert::SerialNumber> b;
      for (std::uint64_t i = 0; i < 50; ++i) {
        b.push_back(cert::SerialNumber::from_uint(1'000'000 + k * 50 + i, 4));
      }
      return b;
    };

    const std::uint64_t tree_hashes_before = tree.total_hash_count();
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t k = 0; k < 120; ++k) {
      tree.insert(batch_at(k));
      (void)tree.root();
    }
    const double tree_ms =
        us_per_op(std::chrono::steady_clock::now() - start, 1) / 1000.0;
    tree_rehashes = tree.total_hash_count() - tree_hashes_before;

    // Absence-proof size for an absent serial (sized without serializing).
    const auto probe = cert::SerialNumber::from_uint(123'456'789, 4);
    const auto tree_proof = tree.prove(probe).wire_size();

    Table t2b({"backend", "120 issuances (ms)", "rehashes",
               "absence proof (B)"});
    t2b.add_row({"sorted Merkle tree (paper)", Table::num(tree_ms, 1),
                 Table::num(tree_rehashes),
                 Table::num(std::uint64_t(tree_proof))});
    std::printf("%s\n", t2b.render().c_str());
    tree_ms_final = tree_ms;
    tree_proof_bytes = tree_proof;
  }

  std::printf("== ablation 3: freshness chain length m ==\n\n");
  {
    // m trades CA re-sign frequency (one Ed25519 signature + m hashes)
    // against nothing on the verifier side (statements are O(gap) to
    // check). Build cost scales linearly with m.
    Table t3({"m", "build (us)", "re-signs/day (d=10s)"});
    for (std::size_t m : {64ul, 1024ul, 8640ul, 86400ul}) {
      crypto::Digest20 v{};
      v.fill(0x7);
      const auto start = std::chrono::steady_clock::now();
      crypto::HashChain chain(v, m);
      const double us = us_per_op(std::chrono::steady_clock::now() - start, 1);
      t3.add_row({Table::num(std::uint64_t(m)), Table::num(us, 0),
                  Table::num(8640.0 / double(m), 2)});
    }
    std::printf("%s", t3.render().c_str());
  }

  if (std::FILE* f = std::fopen("BENCH_dict.json", "w")) {
    std::fprintf(
        f,
        "{\n"
        "  \"proofs_100k\": {\"prove_ns\": %.0f, \"verify_ns\": %.0f, "
        "\"proof_bytes\": %.0f, \"prove_ops_per_sec\": %.0f, "
        "\"verify_ops_per_sec\": %.0f},\n"
        "  \"insert_10k\": {\"one_batch_ms\": %.2f, "
        "\"hundred_issuances_ms\": %.2f},\n"
        "  \"issuance_stream_50k\": {\n"
        "    \"tree\": {\"ms\": %.2f, \"rehashes\": %llu, "
        "\"absence_proof_bytes\": %zu}\n"
        "  }\n"
        "}\n",
        prove_us_100k * 1000.0, verify_us_100k * 1000.0, proof_bytes_100k,
        prove_us_100k > 0 ? 1e6 / prove_us_100k : 0,
        verify_us_100k > 0 ? 1e6 / verify_us_100k : 0, batch_ms_final,
        inc_ms_final, tree_ms_final, (unsigned long long)tree_rehashes,
        tree_proof_bytes);
    std::fclose(f);
    std::printf("\nwrote BENCH_dict.json\n");
  }
  return 0;
}
