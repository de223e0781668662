// Standalone fountain-codec demo: uses the coding library without any
// networking. Encodes a block, simulates an erasure channel, decodes,
// and reports the redundancy — once with the paper's GF(2) code and once
// with the GF(256) ablation.
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "fountain/codec.h"
#include "fountain/gf256_kernels.h"
#include "fountain/gf2_kernels.h"

using namespace fmtcp;
using namespace fmtcp::fountain;

int main() {
  const std::uint32_t k = 64;
  const std::size_t symbol_bytes = 160;
  const double channel_loss = 0.2;

  Rng rng(2024);
  const BlockData original = make_deterministic_block(7, k, symbol_bytes);

  std::printf("block: %u symbols x %zu bytes = %zu bytes\n", k,
              symbol_bytes, original.total_bytes());
  std::printf("channel: %.0f%% i.i.d. erasures\n\n", channel_loss * 100);

  for (const CodingField field : {CodingField::kGf2, CodingField::kGf256}) {
    SymbolEncoder encoder(field, 7, original, rng.fork());
    SymbolDecoder decoder(field, k, symbol_bytes, /*track_data=*/true);
    Rng channel = rng.fork();
    std::uint64_t sent = 0;
    std::uint64_t erased = 0;
    while (!decoder.complete()) {
      net::EncodedSymbol symbol = encoder.next_symbol();
      ++sent;
      if (channel.bernoulli(channel_loss)) {
        ++erased;
        continue;
      }
      decoder.add_symbol(std::move(symbol));
    }
    const bool ok = decoder.decode().bytes() == original.bytes();
    std::printf("%s random linear fountain (kernel: %s):\n",
                field == CodingField::kGf2 ? "GF(2)" : "GF(256)",
                field == CodingField::kGf2 ? gf2_kernel().name
                                           : gf256_kernel().name);
    std::printf("  sent %llu symbols (%llu erased, %llu redundant)\n",
                static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(erased),
                static_cast<unsigned long long>(decoder.redundant_count()));
    std::printf("  received %llu, rank %u/%u, decode %s\n",
                static_cast<unsigned long long>(decoder.received_count()),
                decoder.rank(), k, ok ? "byte-exact" : "FAILED");
    std::printf("  overhead beyond k/(1-p): %.1f%%\n\n",
                100.0 * (static_cast<double>(sent) /
                             (k / (1.0 - channel_loss)) -
                         1.0));
  }
  return 0;
}
