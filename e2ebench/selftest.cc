// Self-test of the benchmark's output checks (checks.h): each check must
// pass on an intact input and fail on a doctored one.
//
//   .bench_build/e2ebench/e2e_selftest      (built by run.py)
//   python3 e2ebench/run.py --self-test     (builds, then runs it)
//
// Exits 0 when every case behaves, 1 otherwise.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "harness/table1.h"

namespace {

using fmtcp::harness::RunResult;
using fmtcp::harness::Scenario;

int g_failures = 0;

/// Runs `check` on the intact input and on the doctored one: the first
/// must record no failure, the second at least one.
void expect(const std::string& name,
            const std::function<void(bool doctored, e2e::Checker&)>& check) {
  e2e::Checker intact;
  check(false, intact);
  e2e::Checker doctored;
  check(true, doctored);
  const bool ok = intact.ok() && !doctored.ok();
  std::printf("%-36s %s", name.c_str(), ok ? "ok" : "FAILED");
  if (!doctored.failures().empty()) {
    std::printf("  (%s)", doctored.failures().front().c_str());
  }
  for (const std::string& f : intact.failures()) {
    std::printf("\n    intact input failed: %s", f.c_str());
  }
  std::printf("\n");
  if (!ok) ++g_failures;
}

/// A plausible result for Table-I case 1 over `scenario`.
RunResult sample_result(const Scenario& scenario) {
  RunResult r;
  r.delivered_bytes = 40 * 20480;
  r.goodput_MBps = static_cast<double>(r.delivered_bytes) / 1e6 /
                   fmtcp::to_seconds(scenario.duration);
  r.goodput_series_MBps = {0.1, 0.9, 1.1};
  r.blocks_completed = 40;
  r.block_delays_ms.assign(40, 250.0);
  r.symbols_sent = 40 * 140;
  r.redundant_symbols = 100;
  r.subflows.resize(2);
  r.subflows[0].segments_sent = 1000;
  r.subflows[1].segments_sent = 300;
  r.sim_events = 12345;
  return r;
}

}  // namespace

int main() {
  Scenario scenario = fmtcp::harness::table1_scenario(0);
  scenario.duration = 10 * fmtcp::kSecond;
  const std::size_t block_bytes = 128 * 160;

  expect("stream: corrupted delivered byte", [&](bool doctored,
                                                 e2e::Checker& c) {
    const std::vector<std::uint8_t> bytes =
        e2e::make_stream_bytes(7, 3 * block_bytes);
    e2e::VerifyingSink sink(bytes, block_bytes);
    for (std::uint64_t id = 0; id < 3; ++id) {
      fmtcp::fountain::BlockData block(128, 160);
      for (std::size_t i = 0; i < block_bytes; ++i) {
        block.bytes()[i] = bytes[id * block_bytes + i];
      }
      if (doctored && id == 1) block.bytes()[77] ^= 0x01;
      sink.on_block(id, block);
    }
    e2e::check_stream(sink, 3, "stream", c);
  });

  expect("stream: block delivered twice", [&](bool doctored,
                                              e2e::Checker& c) {
    const std::vector<std::uint8_t> bytes =
        e2e::make_stream_bytes(7, 2 * block_bytes);
    e2e::SliceSource source(bytes, block_bytes);
    e2e::VerifyingSink sink(bytes, block_bytes);
    sink.on_block(0, source.build_block(0, 128, 160));
    if (doctored) sink.on_block(0, source.build_block(0, 128, 160));
    sink.on_block(1, source.build_block(1, 128, 160));
    e2e::check_stream(sink, 2, "stream", c);
  });

  expect("capacity: goodput above paths", [&](bool doctored,
                                              e2e::Checker& c) {
    RunResult r = sample_result(scenario);
    if (doctored) {
      // 2 x 0.625 MB/s for 10 s is 12.5 MB; claim a byte more.
      r.delivered_bytes = 12'500'001;
    }
    e2e::check_capacity(r, scenario, "case1", c);
  });

  expect("delay: below propagation", [&](bool doctored, e2e::Checker& c) {
    RunResult r = sample_result(scenario);
    if (doctored) r.block_delays_ms[5] = 150.0;  // < 2 x 100 ms
    e2e::check_block_delays(r, scenario, "case1", c);
  });

  expect("rank: too few independent symbols", [&](bool doctored,
                                                  e2e::Checker& c) {
    const std::uint64_t received = doctored ? 40 * 128 + 99 : 40 * 128 + 100;
    e2e::check_rank(received, 100, 40, 128, "case1", c);
  });

  expect("delivery: receiver vs sender blocks", [&](bool doctored,
                                                    e2e::Checker& c) {
    RunResult r = sample_result(scenario);
    if (doctored) r.blocks_completed = 40 + 65;  // gap above a cap of 64
    e2e::check_delivery(r, block_bytes, 64, true, "case1", c);
  });

  expect("jobs=1 vs jobs=N mismatch", [&](bool doctored, e2e::Checker& c) {
    const RunResult serial = sample_result(scenario);
    RunResult parallel = serial;
    if (doctored) parallel.subflows[1].retransmissions += 1;
    e2e::check_identical(serial, parallel, "jobs=1 vs jobs=2 case1", c);
  });

  expect("rank-only vs payload mismatch", [&](bool doctored,
                                              e2e::Checker& c) {
    const RunResult payload = sample_result(scenario);
    RunResult rank_only = payload;
    if (doctored) rank_only.block_delays_ms.back() += 0.001;
    e2e::check_identical(payload, rank_only, "payload vs rank-only", c);
  });

  expect("conservation: packet imbalance", [&](bool doctored,
                                               e2e::Checker& c) {
    e2e::LinkCounts counts;
    counts.traced_enqueued = 1000;
    counts.traced_queue_drops = 5;
    counts.traced_channel_drops = 20;
    counts.traced_delivered = 970;
    counts.link_sent = 1005;
    counts.link_queue_drops = 5;
    counts.link_channel_drops = 20;
    counts.link_delivered = 970;
    counts.queued_at_end = 4;
    counts.max_on_wire = 8;
    if (doctored) {
      // One delivery more than the packets that entered the link.
      counts.traced_delivered += 7;
      counts.link_delivered += 7;
    }
    e2e::check_conservation(counts, "link 0", c);
  });

  expect("conservation: tracer vs link", [&](bool doctored,
                                             e2e::Checker& c) {
    e2e::LinkCounts counts;
    counts.traced_enqueued = 10;
    counts.traced_delivered = 10;
    counts.link_sent = 10;
    counts.link_delivered = doctored ? 9 : 10;
    e2e::check_conservation(counts, "link 1", c);
  });

  expect("liveness: stall detector", [&](bool doctored, e2e::Checker& c) {
    std::vector<double> series(30, 0.5);
    for (std::size_t i = 10; i < (doctored ? 19u : 18u); ++i) series[i] = 0;
    if (e2e::longest_stall_bins(series) > 8) c.fail("stall above 8 bins");
  });

  std::printf("%s\n", g_failures == 0 ? "all checks behave" : "FAILURES");
  return g_failures == 0 ? 0 : 1;
}
