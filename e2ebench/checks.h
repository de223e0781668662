// Output checks of the end-to-end benchmark. Every check is either
// computed apart from the program (the stream cell's bytes, path
// capacity, propagation delay, packet counts) or is a property the
// method must have (k̂ independent symbols per decoded block, rank-only
// and payload mode agreeing, jobs=1 and jobs=N agreeing). None compares
// against stored output. The functions take plain data so the self-test
// (selftest.cc) can feed them doctored inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/block_source.h"
#include "harness/runner.h"
#include "net/trace.h"

namespace e2e {

/// Collects check failures; a run is correct iff none were recorded.
class Checker {
 public:
  void fail(const std::string& what) { failures_.push_back(what); }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// Application bytes of the stream cell, generated from the run seed.
std::vector<std::uint8_t> make_stream_bytes(std::uint64_t seed,
                                            std::size_t bytes);

/// Benchmark-owned BlockSource: serves consecutive slices of a byte
/// string as blocks, at most `blocks` of them.
class SliceSource final : public fmtcp::core::BlockSource {
 public:
  SliceSource(const std::vector<std::uint8_t>& bytes, std::size_t block_bytes)
      : bytes_(bytes), block_bytes_(block_bytes) {}

  std::uint64_t blocks() const { return bytes_.size() / block_bytes_; }
  bool has_block(fmtcp::net::BlockId id) override { return id < blocks(); }
  fmtcp::fountain::BlockData build_block(fmtcp::net::BlockId id,
                                         std::uint32_t symbols,
                                         std::size_t symbol_bytes) override;

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t block_bytes_;
};

/// Benchmark-owned BlockSink: checks that blocks arrive in id order,
/// each exactly once, with exactly the bytes the source was given.
class VerifyingSink final : public fmtcp::core::BlockSink {
 public:
  VerifyingSink(const std::vector<std::uint8_t>& bytes,
                std::size_t block_bytes)
      : bytes_(bytes), block_bytes_(block_bytes) {}

  void on_block(fmtcp::net::BlockId id,
                const fmtcp::fountain::BlockData& block) override;

  std::uint64_t delivered_blocks() const { return next_; }
  std::uint64_t delivered_bytes() const { return next_ * block_bytes_; }
  /// Empty while every block so far was in order and byte-exact.
  const std::string& error() const { return error_; }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t block_bytes_;
  std::uint64_t next_ = 0;
  std::string error_;
};

/// The stream cell delivered every written byte, in order, exactly once.
void check_stream(const VerifyingSink& sink, std::uint64_t blocks_written,
                  const std::string& cell, Checker& checker);

/// Payload verification reported by the receiver (payload cells).
void check_payload(const fmtcp::harness::RunResult& result,
                   const std::string& cell, Checker& checker);

/// Delivered application bytes fit through the two paths' capacity.
void check_capacity(const fmtcp::harness::RunResult& result,
                    const fmtcp::harness::Scenario& scenario,
                    const std::string& cell, Checker& checker);

/// Every block took at least the smallest round-trip propagation delay
/// (its data crossed a path and its ACK came back).
void check_block_delays(const fmtcp::harness::RunResult& result,
                        const fmtcp::harness::Scenario& scenario,
                        const std::string& cell, Checker& checker);

/// Independent symbols received cover k̂ per decoded block.
void check_rank(std::uint64_t symbols_received,
                std::uint64_t redundant_symbols,
                std::uint64_t blocks_decoded, std::uint32_t k_hat,
                const std::string& cell, Checker& checker);

/// Receiver-delivered bytes agree with the sender's completed blocks:
/// whole blocks, and the two counts differ by at most `max_gap_blocks`
/// (the pending-block cap for FMTCP; for MPTCP the data a full window
/// of both subflows can hold, delivered but not yet acknowledged).
void check_delivery(const fmtcp::harness::RunResult& result,
                    std::size_t block_bytes, std::uint64_t max_gap_blocks,
                    bool whole_blocks, const std::string& cell,
                    Checker& checker);

/// Two runs of one cell gave the same protocol results (everything the
/// simulation determines; wall time excluded).
void check_identical(const fmtcp::harness::RunResult& a,
                     const fmtcp::harness::RunResult& b,
                     const std::string& what, Checker& checker);

/// Per-link packet counts: what a benchmark-owned tracer saw, and what
/// the link itself reports at the end of the run.
struct LinkCounts {
  std::uint64_t traced_enqueued = 0;
  std::uint64_t traced_queue_drops = 0;
  std::uint64_t traced_channel_drops = 0;
  std::uint64_t traced_delivered = 0;
  std::uint64_t link_sent = 0;
  std::uint64_t link_queue_drops = 0;
  std::uint64_t link_channel_drops = 0;
  std::uint64_t link_delivered = 0;
  std::uint64_t queued_at_end = 0;
  /// Packets that can be between queue and sink at the end: one being
  /// serialised plus what the propagation delay can hold at line rate
  /// with the smallest packet seen.
  std::uint64_t max_on_wire = 0;
};

/// Every packet handed to a link was queued or dropped, and every queued
/// packet was dropped, delivered, or is still in the link.
void check_conservation(const LinkCounts& counts, const std::string& link,
                        Checker& checker);

/// Benchmark-owned tracer: counts events per link and the smallest
/// packet, for check_conservation and the net.* metrics.
class LinkTracer final : public fmtcp::net::PacketTracer {
 public:
  static constexpr std::size_t kLinks = 4;  ///< 2 paths x 2 directions.

  void on_packet(fmtcp::net::TraceEvent event, fmtcp::SimTime when,
                 std::uint32_t link_id,
                 const fmtcp::net::Packet& packet) override;

  std::uint64_t count(std::uint32_t link,
                      fmtcp::net::TraceEvent event) const {
    return counts_[link][static_cast<int>(event)];
  }
  std::size_t min_packet_bytes(std::uint32_t link) const {
    return min_bytes_[link];
  }

 private:
  std::uint64_t counts_[kLinks][4] = {};
  std::size_t min_bytes_[kLinks] = {~std::size_t{0}, ~std::size_t{0},
                                    ~std::size_t{0}, ~std::size_t{0}};
};

/// Longest run of consecutive zero-goodput bins, in bins.
std::size_t longest_stall_bins(const std::vector<double>& series);

}  // namespace e2e
