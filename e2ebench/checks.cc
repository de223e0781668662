#include "checks.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/rng.h"

namespace e2e {

using fmtcp::harness::RunResult;
using fmtcp::harness::Scenario;

namespace {

std::string describe(const std::string& cell, const std::string& what) {
  return cell + ": " + what;
}

}  // namespace

std::vector<std::uint8_t> make_stream_bytes(std::uint64_t seed,
                                            std::size_t bytes) {
  fmtcp::Rng rng(seed ^ 0x5eedb10c5eedb10cull);
  std::vector<std::uint8_t> out(bytes);
  for (std::size_t i = 0; i < bytes; i += 8) {
    const std::uint64_t word = rng.next_u64();
    std::memcpy(out.data() + i, &word, std::min<std::size_t>(8, bytes - i));
  }
  return out;
}

fmtcp::fountain::BlockData SliceSource::build_block(
    fmtcp::net::BlockId id, std::uint32_t symbols, std::size_t symbol_bytes) {
  fmtcp::fountain::BlockData block(symbols, symbol_bytes);
  std::memcpy(block.symbol(0), bytes_.data() + id * block_bytes_,
              block_bytes_);
  return block;
}

void VerifyingSink::on_block(fmtcp::net::BlockId id,
                             const fmtcp::fountain::BlockData& block) {
  if (!error_.empty()) return;
  if (id != next_) {
    error_ = "block " + std::to_string(id) + " arrived when block " +
             std::to_string(next_) + " was due";
    return;
  }
  if (block.total_bytes() != block_bytes_ ||
      (id + 1) * block_bytes_ > bytes_.size()) {
    error_ = "block " + std::to_string(id) + " has the wrong size";
    return;
  }
  if (std::memcmp(block.symbol(0), bytes_.data() + id * block_bytes_,
                  block_bytes_) != 0) {
    error_ = "block " + std::to_string(id) + " differs from the bytes written";
    return;
  }
  ++next_;
}

void check_stream(const VerifyingSink& sink, std::uint64_t blocks_written,
                  const std::string& cell, Checker& checker) {
  if (!sink.error().empty()) {
    checker.fail(describe(cell, sink.error()));
  } else if (sink.delivered_blocks() != blocks_written) {
    checker.fail(describe(cell, std::to_string(sink.delivered_blocks()) +
                                    " of " + std::to_string(blocks_written) +
                                    " written blocks delivered"));
  }
}

void check_payload(const RunResult& result, const std::string& cell,
                   Checker& checker) {
  if (!result.payload_ok) checker.fail(describe(cell, "payload mismatch"));
}

void check_capacity(const RunResult& result, const Scenario& scenario,
                    const std::string& cell, Checker& checker) {
  const double capacity = 2.0 * scenario.bandwidth_Bps *
                          fmtcp::to_seconds(scenario.duration);
  if (static_cast<double>(result.delivered_bytes) > capacity) {
    std::ostringstream msg;
    msg << "delivered " << result.delivered_bytes
        << " B, above the two paths' capacity of " << capacity << " B";
    checker.fail(describe(cell, msg.str()));
  }
  if (result.delivered_bytes == 0) {
    checker.fail(describe(cell, "delivered nothing"));
  }
}

void check_block_delays(const RunResult& result, const Scenario& scenario,
                        const std::string& cell, Checker& checker) {
  const double min_rtt_ms =
      2.0 * std::min(scenario.path1.delay_ms, scenario.path2.delay_ms);
  for (std::size_t i = 0; i < result.block_delays_ms.size(); ++i) {
    if (result.block_delays_ms[i] < min_rtt_ms) {
      std::ostringstream msg;
      msg << "block " << i << " delay " << result.block_delays_ms[i]
          << " ms is below the round-trip propagation delay " << min_rtt_ms
          << " ms";
      checker.fail(describe(cell, msg.str()));
      return;
    }
  }
  if (result.block_delays_ms.size() != result.blocks_completed) {
    checker.fail(describe(cell, "block delay count differs from blocks"));
  }
}

void check_rank(std::uint64_t symbols_received,
                std::uint64_t redundant_symbols, std::uint64_t blocks_decoded,
                std::uint32_t k_hat, const std::string& cell,
                Checker& checker) {
  if (redundant_symbols > symbols_received ||
      symbols_received - redundant_symbols <
          static_cast<std::uint64_t>(k_hat) * blocks_decoded) {
    std::ostringstream msg;
    msg << blocks_decoded << " blocks decoded from "
        << symbols_received << " symbols of which " << redundant_symbols
        << " redundant: fewer than k=" << k_hat << " independent per block";
    checker.fail(describe(cell, msg.str()));
  }
}

void check_delivery(const RunResult& result, std::size_t block_bytes,
                    std::uint64_t max_gap_blocks, bool whole_blocks,
                    const std::string& cell, Checker& checker) {
  if (whole_blocks && result.delivered_bytes % block_bytes != 0) {
    checker.fail(describe(cell, "delivered bytes are not whole blocks"));
    return;
  }
  const std::uint64_t delivered = result.delivered_bytes / block_bytes;
  const std::uint64_t completed = result.blocks_completed;
  const std::uint64_t gap =
      delivered > completed ? delivered - completed : completed - delivered;
  if (gap > max_gap_blocks) {
    std::ostringstream msg;
    msg << "receiver delivered " << delivered
        << " blocks, sender completed " << completed << " (allowed gap "
        << max_gap_blocks << ")";
    checker.fail(describe(cell, msg.str()));
  }
}

void check_identical(const RunResult& a, const RunResult& b,
                     const std::string& what, Checker& checker) {
  std::vector<std::string> diffs;
  const auto field = [&](bool same, const char* name) {
    if (!same) diffs.emplace_back(name);
  };
  field(a.delivered_bytes == b.delivered_bytes, "delivered_bytes");
  field(a.goodput_series_MBps == b.goodput_series_MBps, "goodput_series");
  field(a.blocks_completed == b.blocks_completed, "blocks_completed");
  field(a.block_delays_ms == b.block_delays_ms, "block_delays");
  field(a.redundant_symbols == b.redundant_symbols, "redundant_symbols");
  field(a.symbols_sent == b.symbols_sent, "symbols_sent");
  field(a.sim_events == b.sim_events, "sim_events");
  field(a.subflows.size() == b.subflows.size(), "subflow_count");
  for (std::size_t i = 0;
       i < std::min(a.subflows.size(), b.subflows.size()); ++i) {
    const auto& x = a.subflows[i];
    const auto& y = b.subflows[i];
    field(x.segments_sent == y.segments_sent &&
              x.retransmissions == y.retransmissions &&
              x.timeouts == y.timeouts &&
              x.fast_retransmits == y.fast_retransmits &&
              x.final_cwnd == y.final_cwnd &&
              x.loss_estimate == y.loss_estimate,
          "subflow_stats");
  }
  if (!diffs.empty()) {
    std::string msg = what + ": results differ in";
    for (const std::string& d : diffs) msg += " " + d;
    checker.fail(msg);
  }
}

void check_conservation(const LinkCounts& c, const std::string& link,
                        Checker& checker) {
  std::vector<std::string> errors;
  if (c.traced_enqueued + c.traced_queue_drops != c.link_sent) {
    errors.emplace_back("enqueued + queue drops != packets sent");
  }
  if (c.traced_queue_drops != c.link_queue_drops) {
    errors.emplace_back("traced queue drops != link queue drops");
  }
  if (c.traced_channel_drops != c.link_channel_drops) {
    errors.emplace_back("traced channel drops != link channel drops");
  }
  if (c.traced_delivered != c.link_delivered) {
    errors.emplace_back("traced deliveries != link deliveries");
  }
  const std::uint64_t left =
      c.traced_channel_drops + c.traced_delivered + c.queued_at_end;
  if (left > c.traced_enqueued) {
    errors.emplace_back("more packets left the queue than entered it");
  } else if (c.traced_enqueued - left > c.max_on_wire) {
    errors.emplace_back("packets unaccounted for");
  }
  for (const std::string& e : errors) checker.fail(link + ": " + e);
}

void LinkTracer::on_packet(fmtcp::net::TraceEvent event, fmtcp::SimTime,
                           std::uint32_t link_id,
                           const fmtcp::net::Packet& packet) {
  if (link_id >= kLinks) return;
  ++counts_[link_id][static_cast<int>(event)];
  min_bytes_[link_id] = std::min(min_bytes_[link_id], packet.size_bytes);
}

std::size_t longest_stall_bins(const std::vector<double>& series) {
  std::size_t longest = 0;
  std::size_t run = 0;
  for (double rate : series) {
    run = rate == 0.0 ? run + 1 : 0;
    longest = std::max(longest, run);
  }
  return longest;
}

}  // namespace e2e
