#include "fountain/codec.h"

#include <cstring>
#include <utility>

#include "common/check.h"
#include "fountain/gf256.h"
#include "fountain/random_linear.h"
#include "obs/trace/span.h"

namespace fmtcp::fountain {

const char* coding_field_name(CodingField field) {
  return field == CodingField::kGf2 ? "gf2" : "gf256";
}

std::optional<CodingField> parse_coding_field(const char* name) {
  if (std::strcmp(name, "gf2") == 0) return CodingField::kGf2;
  if (std::strcmp(name, "gf256") == 0) return CodingField::kGf256;
  return std::nullopt;
}

double field_decode_failure_probability(CodingField field,
                                        std::uint32_t k_hat,
                                        double received) {
  if (field == CodingField::kGf256) {
    return gf256_decode_failure_probability(k_hat, received);
  }
  return decode_failure_probability(k_hat, received);
}

SymbolEncoder::SymbolEncoder(CodingField field, std::uint64_t block_id,
                             BlockData block, Rng rng, bool systematic)
    : field_(field),
      block_id_(block_id),
      symbols_(block.symbols()),
      symbol_bytes_(block.symbol_bytes()),
      data_(std::move(block)),
      rng_(rng),
      systematic_(systematic) {}

SymbolEncoder::SymbolEncoder(CodingField field, std::uint64_t block_id,
                             std::uint32_t symbols, std::size_t symbol_bytes,
                             Rng rng, bool systematic)
    : field_(field),
      block_id_(block_id),
      symbols_(symbols),
      symbol_bytes_(symbol_bytes),
      rng_(rng),
      systematic_(systematic) {
  FMTCP_CHECK(symbols > 0);
  FMTCP_CHECK(symbol_bytes > 0);
}

net::EncodedSymbol SymbolEncoder::next_symbol() {
  FMTCP_COUNT("codec.encode_symbol", 1);
  net::EncodedSymbol s;
  s.block = block_id_;
  s.block_symbols = symbols_;
  if (systematic_ && generated_ < symbols_) {
    s.systematic_index = static_cast<std::uint32_t>(generated_);
  } else {
    s.coeff_seed = rng_.next_u64();
  }
  ++generated_;
  if (!data_.has_value()) return s;  // Rank-only: the seed is the symbol.

  if (pool_ != nullptr) s.data = pool_->acquire(symbol_bytes_);
  if (s.is_systematic()) {
    const std::uint8_t* src = data_->symbol(s.systematic_index);
    s.data.assign(src, src + symbol_bytes_);
  } else if (field_ == CodingField::kGf256) {
    gf256_coefficients_from_seed_into(s.coeff_seed, symbols_, gf256_coeffs_);
    gf256_encode_with_coefficients_into(*data_, gf256_coeffs_.data(),
                                        s.data);
  } else {
    coefficients_from_seed_into(s.coeff_seed, symbols_, gf2_coeffs_);
    encode_with_coefficients_into(*data_, gf2_coeffs_, s.data);
  }
  return s;
}

SymbolDecoder::SymbolDecoder(CodingField field, std::uint32_t symbols,
                             std::size_t symbol_bytes, bool track_data,
                             BufferPool* pool, CodingMetrics* metrics)
    : impl_(field == CodingField::kGf256
                ? std::variant<BlockDecoder, Gf256RlcDecoder>(
                      std::in_place_type<Gf256RlcDecoder>, symbols,
                      symbol_bytes, track_data, pool)
                : std::variant<BlockDecoder, Gf256RlcDecoder>(
                      std::in_place_type<BlockDecoder>, symbols, symbol_bytes,
                      track_data, pool, metrics)) {}

bool SymbolDecoder::add_symbol(net::EncodedSymbol&& symbol) {
  return std::visit(
      [&symbol](auto& d) { return d.add_symbol(std::move(symbol)); }, impl_);
}

bool SymbolDecoder::add_symbol(const net::EncodedSymbol& symbol) {
  return std::visit([&symbol](auto& d) { return d.add_symbol(symbol); },
                    impl_);
}

std::uint32_t SymbolDecoder::rank() const {
  return std::visit([](const auto& d) { return d.rank(); }, impl_);
}

bool SymbolDecoder::complete() const {
  return std::visit([](const auto& d) { return d.complete(); }, impl_);
}

std::uint32_t SymbolDecoder::symbols() const {
  return std::visit([](const auto& d) { return d.symbols(); }, impl_);
}

std::size_t SymbolDecoder::symbol_bytes() const {
  return std::visit([](const auto& d) { return d.symbol_bytes(); }, impl_);
}

std::uint64_t SymbolDecoder::received_count() const {
  return std::visit([](const auto& d) { return d.received_count(); }, impl_);
}

std::uint64_t SymbolDecoder::redundant_count() const {
  return std::visit([](const auto& d) { return d.redundant_count(); }, impl_);
}

std::size_t SymbolDecoder::buffered_bytes() const {
  return std::visit([](const auto& d) { return d.buffered_bytes(); }, impl_);
}

const BlockData& SymbolDecoder::decode(DecodeScratch& scratch) {
  if (auto* gf2 = std::get_if<BlockDecoder>(&impl_)) {
    return gf2->decode(scratch);
  }
  return std::get<Gf256RlcDecoder>(impl_).decode();
}

const BlockData& SymbolDecoder::decode() {
  return std::visit([](auto& d) -> const BlockData& { return d.decode(); },
                    impl_);
}

}  // namespace fmtcp::fountain
