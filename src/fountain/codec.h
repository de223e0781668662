// Field-tagged codec front end.
//
// SymbolEncoder is the one per-block encoder for both coefficient
// fields; it branches on FmtcpParams::coding_field only where the fields
// differ (coefficient expansion and the combine kernel). SymbolDecoder
// holds either the GF(2) decoder (decoder.h) or the GF(256) one
// (gf256_rlc.h), which are different algorithms, behind the interface
// the receiver uses. The wire format (seed-carrying EncodedSymbol) is
// shared, and kGf2 reproduces the paper's GF(2) code byte for byte.
//
// The decoder dispatch is a std::variant visit per call, far off the hot
// loops (the per-byte work happens inside the held decoder's kernels).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "common/buffer_pool.h"
#include "common/rng.h"
#include "fountain/block.h"
#include "fountain/coding_field.h"
#include "fountain/decoder.h"
#include "fountain/gf2.h"
#include "fountain/gf256_rlc.h"
#include "net/packet.h"

namespace fmtcp::fountain {

/// Stateful per-block random linear encoder (paper Eq. 1) held by the
/// sender. Each symbol after the systematic prefix draws a fresh 64-bit
/// coefficient seed; in payload mode the seed is expanded into k̂
/// coefficients of the chosen field (bits for GF(2), bytes for GF(256))
/// and the block's symbols are combined with them. In rank-only mode
/// symbols carry just the seed, which leaves every protocol decision and
/// packet size unchanged while skipping the byte work (a simulation
/// speed knob).
///
/// Optionally *systematic* (like RFC 5053/6330 Raptor codes): the first
/// k̂ symbols emitted are the source symbols themselves, so a lossless
/// channel decodes for free; repair symbols afterwards are random linear
/// combinations as usual.
class SymbolEncoder {
 public:
  /// Payload mode: encodes real bytes from `block` (copied).
  SymbolEncoder(CodingField field, std::uint64_t block_id, BlockData block,
                Rng rng, bool systematic = false);

  /// Rank-only mode: symbols have empty `data`.
  SymbolEncoder(CodingField field, std::uint64_t block_id,
                std::uint32_t symbols, std::size_t symbol_bytes, Rng rng,
                bool systematic = false);

  /// Generates the next encoded symbol (source symbol while the
  /// systematic prefix lasts, then fresh random coefficients).
  net::EncodedSymbol next_symbol();

  /// Optional buffer pool: when set, payload buffers for emitted symbols
  /// are acquired from it instead of freshly allocated. The pool must
  /// outlive the encoder. Does not affect the symbol stream (seeds and
  /// bytes are identical either way).
  void set_buffer_pool(BufferPool* pool) { pool_ = pool; }

  CodingField field() const { return field_; }
  bool systematic() const { return systematic_; }
  std::uint64_t block_id() const { return block_id_; }
  std::uint32_t symbols() const { return symbols_; }
  std::size_t symbol_bytes() const { return symbol_bytes_; }
  std::uint64_t generated_count() const { return generated_; }

 private:
  CodingField field_;
  std::uint64_t block_id_;
  std::uint32_t symbols_;
  std::size_t symbol_bytes_;
  std::optional<BlockData> data_;  ///< Absent in rank-only mode.
  BufferPool* pool_ = nullptr;
  Rng rng_;
  bool systematic_ = false;
  std::uint64_t generated_ = 0;
  // Coefficient scratch reused per symbol (payload mode only); the field
  // picks which one is used.
  BitVector gf2_coeffs_;
  std::vector<std::uint8_t> gf256_coeffs_;
};

/// Per-block decoder in the chosen field. `metrics` (GF(2)-plane obs
/// counters) applies to the GF(2) decoder; the GF(256) decoder keeps its
/// own cost counters (gf256_rlc.h accessors).
class SymbolDecoder {
 public:
  SymbolDecoder(CodingField field, std::uint32_t symbols,
                std::size_t symbol_bytes, bool track_data,
                BufferPool* pool = nullptr, CodingMetrics* metrics = nullptr);

  /// Hot-path form: takes ownership of the symbol's payload bytes.
  bool add_symbol(net::EncodedSymbol&& symbol);
  /// Copying convenience overload (tests and observers).
  bool add_symbol(const net::EncodedSymbol& symbol);

  std::uint32_t rank() const;
  bool complete() const;
  std::uint32_t symbols() const;
  std::size_t symbol_bytes() const;
  std::uint64_t received_count() const;
  std::uint64_t redundant_count() const;
  std::size_t buffered_bytes() const;

  /// Recovers the original block (complete() and track_data required).
  /// `scratch` amortises GF(2) decode tables across blocks; the GF(256)
  /// decoder has no cross-block tables and ignores it.
  const BlockData& decode(DecodeScratch& scratch);
  const BlockData& decode();

  CodingField field() const {
    return std::holds_alternative<BlockDecoder>(impl_) ? CodingField::kGf2
                                                       : CodingField::kGf256;
  }

 private:
  std::variant<BlockDecoder, Gf256RlcDecoder> impl_;
};

}  // namespace fmtcp::fountain
