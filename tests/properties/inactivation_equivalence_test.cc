// Inactivation-vs-plain equivalence: decode() may solve a block either by
// plain blocked elimination or by inactivation (sparse rows substitute
// symbolically, only the dense core pays dense elimination). Both compute
// the unique GF(2) solution, so for any stream the decoded bytes must be
// byte-identical under either strategy and under kAuto (and under any
// dispatched XOR kernel: inactivation_kernels_test.cc). This suite forces
// each strategy on identical streams — systematic/coded mixes are the
// inactivation sweet spot (weight-1 pivot rows plus a few dense repair
// rows) — and cross-checks everything against the known source block.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.h"
#include "fountain/codec.h"
#include "fountain/decoder.h"
#include "mixed_stream.h"

namespace fmtcp::fountain {
namespace {

using Param = std::tuple<std::uint64_t /*seed*/, std::uint32_t /*k*/,
                         double /*coded_fraction*/>;

class InactivationEquivalence : public ::testing::TestWithParam<Param> {};

TEST_P(InactivationEquivalence, StrategiesDecodeIdenticalBytes) {
  const auto [seed, k, coded_fraction] = GetParam();
  const std::size_t symbol_bytes = 24;
  const std::vector<net::EncodedSymbol> stream =
      mixed_stream(seed, k, symbol_bytes, coded_fraction);
  const BlockData expected = make_deterministic_block(seed, k, symbol_bytes);

  BlockDecoder plain(k, symbol_bytes, /*track_data=*/true);
  BlockDecoder inact(k, symbol_bytes, /*track_data=*/true);
  BlockDecoder auto_pick(k, symbol_bytes, /*track_data=*/true);
  plain.set_decode_strategy(BlockDecoder::DecodeStrategy::kPlainElimination);
  inact.set_decode_strategy(BlockDecoder::DecodeStrategy::kInactivation);

  for (std::size_t i = 0; i < stream.size(); ++i) {
    // The strategy choice affects decode() only: the online rank
    // trajectory must be identical.
    const bool a = plain.add_symbol(stream[i]);
    const bool b = inact.add_symbol(stream[i]);
    const bool c = auto_pick.add_symbol(stream[i]);
    ASSERT_EQ(a, b) << "symbol " << i;
    ASSERT_EQ(a, c) << "symbol " << i;
    ASSERT_EQ(plain.rank(), inact.rank()) << "symbol " << i;
  }
  ASSERT_TRUE(plain.complete());
  ASSERT_TRUE(inact.complete());

  DecodeScratch scratch;  // Shared: decode() must leave no stale state.
  const BlockData& plain_out = plain.decode(scratch);
  const BlockData& inact_out = inact.decode(scratch);
  const BlockData& auto_out = auto_pick.decode(scratch);
  EXPECT_EQ(plain_out.bytes(), expected.bytes());
  EXPECT_EQ(inact_out.bytes(), expected.bytes());
  EXPECT_EQ(auto_out.bytes(), expected.bytes());
}

INSTANTIATE_TEST_SUITE_P(
    Streams, InactivationEquivalence,
    ::testing::Combine(::testing::Values(1u, 4u, 9u, 16u),
                       ::testing::Values(32u, 65u, 128u, 256u),
                       ::testing::Values(0.1, 0.45, 1.0)));

TEST(InactivationEquivalence, PureDenseStreamForcedInactivationStillExact) {
  // Worst case for inactivation: every row dense, the core is nearly the
  // whole block. Forcing the strategy must still be exact (it just loses
  // its advantage).
  const std::uint32_t k = 96;
  Rng rng(8);
  SymbolEncoder encoder(CodingField::kGf2, 3,
                        make_deterministic_block(3, k, 40), rng.fork(),
                        /*systematic=*/false);
  BlockDecoder decoder(k, 40, /*track_data=*/true);
  decoder.set_decode_strategy(BlockDecoder::DecodeStrategy::kInactivation);
  while (!decoder.complete()) decoder.add_symbol(encoder.next_symbol());
  EXPECT_EQ(decoder.decode().bytes(),
            make_deterministic_block(3, k, 40).bytes());
}

}  // namespace
}  // namespace fmtcp::fountain
