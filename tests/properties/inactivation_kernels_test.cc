// Inactivation-vs-plain equivalence under every dispatched XOR kernel:
// both decode strategies must reproduce the source block byte for byte
// whichever GF(2) kernel runs underneath. Companion of
// inactivation_equivalence_test.cc, over the same streams but only up to
// k̂ = 128 (each case decodes once per kernel and strategy). gtest runs
// every TEST_P of a suite over one set of values, so this narrower sweep
// lives in its own binary under the same suite name.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "fountain/decoder.h"
#include "fountain/gf2_kernels.h"
#include "mixed_stream.h"

namespace fmtcp::fountain {
namespace {

using Param = std::tuple<std::uint64_t /*seed*/, std::uint32_t /*k*/,
                         double /*coded_fraction*/>;

class InactivationEquivalence : public ::testing::TestWithParam<Param> {};

TEST_P(InactivationEquivalence, StrategiesAgreeUnderEveryKernel) {
  const auto [seed, k, coded_fraction] = GetParam();
  const std::size_t symbol_bytes = 24;
  const std::vector<net::EncodedSymbol> stream =
      mixed_stream(seed, k, symbol_bytes, coded_fraction);
  const BlockData expected = make_deterministic_block(seed, k, symbol_bytes);

  const std::string saved = gf2_kernel().name;
  for (const Gf2KernelOps* ops : gf2_available_kernels()) {
    ASSERT_TRUE(gf2_set_kernel(ops->name));
    for (const auto strategy :
         {BlockDecoder::DecodeStrategy::kPlainElimination,
          BlockDecoder::DecodeStrategy::kInactivation}) {
      BlockDecoder decoder(k, symbol_bytes, /*track_data=*/true);
      decoder.set_decode_strategy(strategy);
      for (const auto& symbol : stream) decoder.add_symbol(symbol);
      ASSERT_TRUE(decoder.complete()) << ops->name;
      EXPECT_EQ(decoder.decode().bytes(), expected.bytes()) << ops->name;
    }
  }
  ASSERT_TRUE(gf2_set_kernel(saved.c_str()));
}

INSTANTIATE_TEST_SUITE_P(
    Streams, InactivationEquivalence,
    ::testing::Combine(::testing::Values(1u, 4u, 9u, 16u),
                       ::testing::Values(32u, 65u, 128u),
                       ::testing::Values(0.1, 0.45, 1.0)));

}  // namespace
}  // namespace fmtcp::fountain
