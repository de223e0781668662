// Shared by the inactivation-equivalence suites: a GF(2) symbol stream
// that mixes sparse systematic rows with dense repair rows, the mix the
// decoder's inactivation strategy is built for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fountain/codec.h"
#include "net/packet.h"

namespace fmtcp::fountain {

/// Mixed stream: a partial systematic prefix (sparse rows) topped up with
/// dense coded repair symbols, shuffled, with duplicates sprinkled in.
/// `coded_fraction` steers the dense-core size the classifier sees.
inline std::vector<net::EncodedSymbol> mixed_stream(std::uint64_t seed,
                                                    std::uint32_t k,
                                                    std::size_t symbol_bytes,
                                                    double coded_fraction) {
  Rng rng(seed * 977 + 5);
  SymbolEncoder systematic(CodingField::kGf2, seed,
                           make_deterministic_block(seed, k, symbol_bytes),
                           rng.fork(), /*systematic=*/true);
  SymbolEncoder coded(CodingField::kGf2, seed,
                      make_deterministic_block(seed, k, symbol_bytes),
                      rng.fork(), /*systematic=*/false);
  std::vector<net::EncodedSymbol> pool;
  for (std::uint32_t i = 0; i < k; ++i) {
    // Drop a fraction of the systematic pass, as loss would.
    auto symbol = systematic.next_symbol();
    if (!rng.bernoulli(coded_fraction)) pool.push_back(std::move(symbol));
  }
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(k * coded_fraction) +
                                    k / 4 + 8;
       ++i) {
    pool.push_back(coded.next_symbol());
    if (rng.bernoulli(0.15)) pool.push_back(pool.back());  // Duplicate.
  }
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.next_below(i)]);
  }
  return pool;
}

}  // namespace fmtcp::fountain
