// SymbolEncoder stream pins: the seeds and bytes each (field, mode) pair
// emits are part of every figure's output (the receiver regenerates the
// coefficients from the seed, and the protocol's decisions follow the
// ranks they produce), so any change to seed draws, coefficient
// expansion, the systematic prefix or the combine kernels shows up here
// first, as a digest mismatch naming the field and mode.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.h"
#include "fountain/block.h"
#include "fountain/codec.h"

namespace fmtcp::fountain {
namespace {

constexpr std::uint32_t kK = 20;
constexpr std::size_t kSymbolBytes = 33;  // Odd: exercises kernel tails.

/// FNV-1a over everything a symbol puts on the wire.
struct Digest {
  std::uint64_t h = 14695981039346656037ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
};

std::uint64_t stream_digest(CodingField field, bool payload, bool systematic) {
  const std::uint64_t id = 7;
  SymbolEncoder encoder =
      payload ? SymbolEncoder(field, id,
                              make_deterministic_block(id, kK, kSymbolBytes),
                              Rng(11), systematic)
              : SymbolEncoder(field, id, kK, kSymbolBytes, Rng(11),
                              systematic);
  Digest d;
  for (std::uint32_t i = 0; i < 3 * kK; ++i) {
    const net::EncodedSymbol s = encoder.next_symbol();
    EXPECT_EQ(s.block, id);
    EXPECT_EQ(s.block_symbols, kK);
    EXPECT_EQ(s.data.size(), payload ? kSymbolBytes : 0u);
    d.add(s.coeff_seed);
    d.add(s.systematic_index);
    for (std::uint8_t b : s.data) d.byte(b);
  }
  EXPECT_EQ(encoder.generated_count(), 3u * kK);
  EXPECT_EQ(encoder.field(), field);
  return d.h;
}

TEST(SymbolEncoder, StreamsMatchPinnedDigests) {
  struct Case {
    CodingField field;
    bool payload;
    bool systematic;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {CodingField::kGf2, true, false, 16034904039777326572ULL},
      {CodingField::kGf2, true, true, 269434490274094174ULL},
      {CodingField::kGf2, false, false, 4306236364753727752ULL},
      {CodingField::kGf2, false, true, 15220126870374771372ULL},
      {CodingField::kGf256, true, false, 4056194862738508089ULL},
      {CodingField::kGf256, true, true, 2329025656619468070ULL},
      {CodingField::kGf256, false, false, 4306236364753727752ULL},
      {CodingField::kGf256, false, true, 15220126870374771372ULL},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(stream_digest(c.field, c.payload, c.systematic), c.digest)
        << coding_field_name(c.field) << (c.payload ? " payload" : " rank-only")
        << (c.systematic ? " systematic" : "");
  }
}

}  // namespace
}  // namespace fmtcp::fountain
