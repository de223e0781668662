// fmtcp_sim — command-line front end for the simulator.
//
// Runs one protocol over the two-disjoint-path topology with every knob
// exposed as a flag, printing the paper's metrics (and optionally the
// per-second goodput series or a CSV packet trace).
//
// Examples:
//   fmtcp_sim --protocol=fmtcp --loss2=0.15 --duration=60
//   fmtcp_sim --protocol=mptcp --loss2=0.10 --reinjection --sack
//   fmtcp_sim --protocol=fmtcp --surge=50:0.35,200:0.01 --series
//   fmtcp_sim --protocol=fmtcp --trace=/tmp/run.csv --duration=5
//   fmtcp_sim --protocol=fmtcp --metrics-json=m.json --timeline=t.jsonl
//   fmtcp_sim --protocol=fmtcp --log-level=debug --duration=2
//   fmtcp_sim --protocol=fmtcp --profile --duration=10
//   fmtcp_sim --protocol=fmtcp --trace-out=trace.json --duration=10
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "common/check.h"
#include "common/flags.h"
#include "common/logging.h"
#include "fountain/coding_field.h"
#include "harness/runner.h"
#include "harness/sweep.h"
#include "net/trace.h"
#include "obs/observer.h"
#include "obs/trace/chrome_trace.h"
#include "obs/trace/span_metrics.h"
#include "obs/trace/tracer.h"

using namespace fmtcp;
using namespace fmtcp::harness;

namespace {

Protocol parse_protocol(const std::string& name) {
  if (name == "fmtcp") return Protocol::kFmtcp;
  if (name == "mptcp") return Protocol::kMptcp;
  if (name == "hmtp") return Protocol::kHmtp;
  if (name == "fixedrate") return Protocol::kFixedRate;
  std::fprintf(stderr,
               "unknown --protocol '%s' (fmtcp|mptcp|hmtp|fixedrate)\n",
               name.c_str());
  std::exit(2);
}

/// Rejects a bad flag value before the run. The simulator's FMTCP_CHECKs
/// guard the same ranges, but as internal invariants: reaching one
/// aborts, which reads as a crash rather than a usage error.
[[noreturn]] void reject(const char* flag, const std::string& value,
                         const char* why) {
  std::fprintf(stderr, "invalid --%s=%s: %s\n", flag, value.c_str(), why);
  std::exit(2);
}

/// A parsed flag value as the user would write it.
std::string shown(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

bool is_rate(double p) { return p >= 0.0 && p < 1.0; }

/// Simulated seconds: positive and small enough to convert to SimTime.
bool is_time(double s) { return s > 0.0 && s < 1e9; }

double get_rate(FlagParser& flags, const char* name, double fallback,
                const char* help) {
  const double p = flags.get_double(name, fallback, help);
  if (!is_rate(p)) reject(name, shown(p), "must be in [0,1)");
  return p;
}

double get_delay_ms(FlagParser& flags, const char* name, const char* help) {
  const double ms = flags.get_double(name, 100.0, help);
  if (!(ms >= 0.0 && ms < 1e9)) reject(name, shown(ms), "must be >= 0 ms");
  return ms;
}

/// Integer flag that must be >= 1 (and fit the 32-bit fields it feeds).
std::uint32_t get_count(FlagParser& flags, const char* name,
                        std::int64_t fallback, const char* help) {
  const std::int64_t n = flags.get_int(name, fallback, help);
  if (n < 1 || n > UINT32_MAX) {
    reject(name, std::to_string(n), "must be >= 1");
  }
  return static_cast<std::uint32_t>(n);
}

/// Parses a whole string as a number; false on anything else.
bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size();
}

/// Parses "t1:rate1,t2:rate2,..." into a loss schedule (seconds:rate).
std::vector<net::TimeVaryingLoss::Step> parse_surge(
    const std::string& spec, double initial_rate) {
  std::vector<net::TimeVaryingLoss::Step> steps = {{0, initial_rate}};
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const std::size_t colon = item.find(':');
    double t = 0.0;
    double rate = 0.0;
    if (colon == std::string::npos ||
        !parse_number(item.substr(0, colon), t) ||
        !parse_number(item.substr(colon + 1), rate)) {
      reject("surge", spec, "want t:rate,... (seconds:loss rate)");
    }
    if (!is_time(t)) reject("surge", spec, "each time must be > 0 s");
    if (!is_rate(rate)) reject("surge", spec, "each rate must be in [0,1)");
    if (from_seconds(t) <= steps.back().start) {
      reject("surge", spec, "times must increase");
    }
    steps.push_back({from_seconds(t), rate});
  }
  return steps;
}

LogLevel parse_log_level(const std::string& name) {
  if (name == "trace") return LogLevel::kTrace;
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  std::fprintf(stderr,
               "unknown --log-level '%s' (trace|debug|info|warn|error)\n",
               name.c_str());
  std::exit(2);
}

/// Opened before the run so a bad --metrics-json path fails fast
/// instead of after the whole simulation.
std::FILE* open_metrics_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::perror(("metrics: cannot open '" + path + "' for writing").c_str());
    std::exit(1);
  }
  return file;
}

void write_metrics_json(const obs::MetricsRegistry& metrics,
                        std::FILE* file) {
  const std::string json = metrics.to_json();
  std::fputs(json.c_str(), file);
  std::fputc('\n', file);
  FMTCP_CHECK(std::fclose(file) == 0);
}

/// Stops the span tracer and emits its outputs: the Chrome trace file
/// (when requested), the aggregate table (--profile), and — when a
/// metrics registry is being written — the span.* / trace.* metrics.
obs::trace::TraceReport finish_tracing(const std::string& trace_out_path,
                                       bool profile,
                                       obs::MetricsRegistry* metrics) {
  obs::trace::TraceReport report = obs::trace::stop();
  if (metrics != nullptr) obs::trace::merge_report(report, *metrics);
  if (!trace_out_path.empty()) {
    obs::trace::write_chrome_trace(report, trace_out_path);
    std::printf("span trace:      %zu records -> %s\n",
                report.records.size(), trace_out_path.c_str());
  }
  if (profile) {
    std::printf("\n%s", obs::trace::format_span_table(report).c_str());
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);

  const std::string protocol_name = flags.get_string(
      "protocol", "fmtcp", "fmtcp | mptcp | hmtp | fixedrate");

  Scenario scenario;
  scenario.path1.delay_ms =
      get_delay_ms(flags, "delay1", "path-1 one-way delay (ms)");
  scenario.path2.delay_ms =
      get_delay_ms(flags, "delay2", "path-2 one-way delay (ms)");
  scenario.path1.loss =
      get_rate(flags, "loss1", 0.0, "path-1 loss rate [0,1)");
  scenario.path2.loss =
      get_rate(flags, "loss2", 0.1, "path-2 loss rate [0,1)");
  const double mbps =
      flags.get_double("bandwidth_mbps", 5.0, "per-path rate (Mb/s)");
  if (!(mbps > 0.0)) reject("bandwidth_mbps", shown(mbps), "must be > 0");
  scenario.bandwidth_Bps = mbps * 1e6 / 8.0;
  scenario.queue_packets =
      get_count(flags, "queue", 100, "drop-tail queue (packets)");
  const double duration_s =
      flags.get_double("duration", 60.0, "simulated seconds");
  if (!is_time(duration_s)) {
    reject("duration", shown(duration_s), "must be > 0 s");
  }
  scenario.duration = from_seconds(duration_s);
  scenario.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", 1, "RNG seed (reproducible runs)"));

  const std::string surge =
      flags.get_string("surge", "", "path-2 loss schedule t:rate,...");
  if (!surge.empty()) {
    scenario.path2_loss_schedule =
        parse_surge(surge, scenario.path2.loss);
  }

  ProtocolOptions options = ProtocolOptions::defaults();
  options.fmtcp.block_symbols = get_count(
      flags, "block_symbols", options.fmtcp.block_symbols, "k-hat");
  options.fmtcp.delta_hat = flags.get_double(
      "delta", options.fmtcp.delta_hat, "max decode-failure prob");
  if (!(options.fmtcp.delta_hat > 0.0 && options.fmtcp.delta_hat < 1.0)) {
    reject("delta", shown(options.fmtcp.delta_hat), "must be in (0,1)");
  }
  options.fmtcp.systematic =
      flags.get_bool("systematic", false, "systematic fountain code");
  const std::string coding_name = flags.get_string(
      "coding", "gf2", "coefficient field: gf2 | gf256");
  if (const auto field = fountain::parse_coding_field(coding_name.c_str())) {
    options.fmtcp.coding_field = *field;
  } else {
    std::fprintf(stderr, "unknown --coding '%s' (gf2|gf256)\n",
                 coding_name.c_str());
    return 2;
  }
  options.sack = flags.get_bool("sack", false, "enable SACK");
  options.delayed_acks =
      flags.get_bool("delayed_acks", false, "RFC1122 delayed ACKs");
  options.mptcp_reinjection =
      flags.get_bool("reinjection", false, "MPTCP loss reinjection");
  options.fmtcp_use_lia = options.mptcp_use_lia =
      flags.get_bool("lia", false, "couple subflows with LIA");
  if (flags.get_bool("cubic", false, "CUBIC instead of Reno")) {
    options.subflow.congestion = tcp::CongestionAlgo::kCubic;
  }
  options.mptcp_receive_buffer =
      std::size_t{get_count(flags, "buffer_kb", 128,
                            "MPTCP receive buffer (KB)")} *
      1024;

  const int seed_count =
      flags.get_int("seeds", 1, "replicate across N seeds (seed..seed+N-1)");
  const unsigned parallel_jobs = jobs_from_flags(flags);
  const bool print_series =
      flags.get_bool("series", false, "print per-second goodput");
  const std::string trace_path =
      flags.get_string("trace", "", "write CSV packet trace to file");
  const std::string metrics_path = flags.get_string(
      "metrics-json", "", "write run metrics as JSON to file");
  const std::string timeline_path = flags.get_string(
      "timeline", "", "write event timeline as JSONL to file");
  const std::string trace_out_path = flags.get_string(
      "trace-out", "", "write Chrome/Perfetto span trace to file");
  const bool profile = flags.get_bool(
      "profile", false, "print the span-profile aggregate table");
  const std::string log_level_name = flags.get_string(
      "log-level", "warn", "trace | debug | info | warn | error");

  if (flags.get_bool("help", false, "show this help")) {
    std::printf("usage: %s [flags]\n%s", flags.program().c_str(),
                flags.usage().c_str());
    return 0;
  }
  for (const std::string& flag : flags.unknown_flags()) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n", flag.c_str());
    return 2;
  }

  set_log_level(parse_log_level(log_level_name));

  std::unique_ptr<net::CsvTracer> tracer;
  if (!trace_path.empty()) {
    tracer = std::make_unique<net::CsvTracer>(trace_path);
    scenario.tracer = tracer.get();
  }

  std::unique_ptr<obs::Observer> observer;
  std::FILE* metrics_file = nullptr;
  if (!metrics_path.empty() || !timeline_path.empty()) {
    observer = std::make_unique<obs::Observer>();
    if (!metrics_path.empty()) {
      metrics_file = open_metrics_file(metrics_path);
    }
    if (!timeline_path.empty()) {
      observer->timeline.open_jsonl(timeline_path);
    }
    scenario.observer = observer.get();
  }

  const Protocol protocol = parse_protocol(protocol_name);

  const bool tracing = profile || !trace_out_path.empty();
  if (tracing) {
    obs::trace::TraceConfig trace_config;
    // The ring (per-event records) only feeds the Chrome exporter; the
    // aggregate table is exact regardless, so skip capture for --profile.
    trace_config.capture_records = !trace_out_path.empty();
    obs::trace::start(trace_config);
  }

  if (seed_count > 1) {
    if (tracer || observer) {
      std::fprintf(stderr,
                   "--seeds is incompatible with --trace/--metrics-json/"
                   "--timeline (per-run outputs would collide)\n");
      return 2;
    }
    std::vector<std::uint64_t> seeds;
    for (int i = 0; i < seed_count; ++i) {
      seeds.push_back(scenario.seed + static_cast<std::uint64_t>(i));
    }
    const std::vector<RunResult> results =
        run_seeds(protocol, scenario, options, seeds, parallel_jobs);
    std::printf("protocol:  %s, %d seeds (%llu..%llu), jobs=%u\n",
                protocol_name.c_str(), seed_count,
                static_cast<unsigned long long>(seeds.front()),
                static_cast<unsigned long long>(seeds.back()),
                parallel_jobs);
    std::printf("seed\tgoodput(MB/s)\tdelay(ms)\tjitter(ms)\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::printf("%llu\t%.4f\t%.1f\t%.1f\n",
                  static_cast<unsigned long long>(seeds[i]),
                  results[i].goodput_MBps, results[i].mean_delay_ms,
                  results[i].jitter_ms);
    }
    const SeedStats goodput = aggregate(
        results, [](const RunResult& r) { return r.goodput_MBps; });
    const SeedStats delay = aggregate(
        results, [](const RunResult& r) { return r.mean_delay_ms; });
    std::printf("mean\t%.4f +/- %.4f\t%.1f +/- %.1f ms\n", goodput.mean,
                goodput.stddev, delay.mean, delay.stddev);
    if (tracing) finish_tracing(trace_out_path, profile, nullptr);
    return 0;
  }

  const RunResult result = run_scenario(protocol, scenario, options);

  std::printf("protocol:        %s\n", protocol_name.c_str());
  std::printf("paths:           %.0fms/%.1f%% + %.0fms/%.1f%% @ %.1f Mb/s\n",
              scenario.path1.delay_ms, scenario.path1.loss * 100,
              scenario.path2.delay_ms, scenario.path2.loss * 100,
              scenario.bandwidth_Bps * 8 / 1e6);
  std::printf("goodput:         %.4f MB/s (%llu bytes in %.0f s)\n",
              result.goodput_MBps,
              static_cast<unsigned long long>(result.delivered_bytes),
              to_seconds(scenario.duration));
  std::printf("blocks:          %llu completed\n",
              static_cast<unsigned long long>(result.blocks_completed));
  std::printf("block delay:     %.1f ms mean, %.1f ms jitter, %.1f ms max\n",
              result.mean_delay_ms, result.jitter_ms, result.max_delay_ms);
  if (result.symbols_sent > 0) {
    std::printf("coding overhead: %.1f%% (payload %s)\n",
                result.coding_overhead(options.fmtcp.block_symbols) * 100,
                result.payload_ok ? "verified" : "CORRUPT");
  }
  for (std::size_t i = 0; i < result.subflows.size(); ++i) {
    const SubflowStats& s = result.subflows[i];
    std::printf(
        "subflow %zu:       sent=%llu rtx=%llu timeouts=%llu cwnd=%.1f "
        "loss_est=%.3f\n",
        i, static_cast<unsigned long long>(s.segments_sent),
        static_cast<unsigned long long>(s.retransmissions),
        static_cast<unsigned long long>(s.timeouts), s.final_cwnd,
        s.loss_estimate);
  }
  std::printf("event loop:      %llu events in %.2f s wall\n",
              static_cast<unsigned long long>(result.sim_events),
              result.wall_seconds);
  if (tracer) {
    std::printf("trace:           %llu rows -> %s\n",
                static_cast<unsigned long long>(tracer->rows_written()),
                trace_path.c_str());
  }
  if (tracing) {
    finish_tracing(trace_out_path, profile,
                   observer ? &observer->metrics : nullptr);
  }
  if (observer) {
    if (metrics_file != nullptr) {
      write_metrics_json(observer->metrics, metrics_file);
      std::printf("metrics:         %zu metrics -> %s\n",
                  observer->metrics.metric_count(), metrics_path.c_str());
    }
    if (!timeline_path.empty()) {
      observer->timeline.flush();
      std::printf("timeline:        %llu events -> %s\n",
                  static_cast<unsigned long long>(
                      observer->timeline.emitted()),
                  timeline_path.c_str());
    }
  }
  if (print_series) {
    std::printf("\nt(s)\tgoodput(MB/s)\n");
    for (std::size_t t = 0; t < result.goodput_series_MBps.size(); ++t) {
      std::printf("%zu\t%.4f\n", t, result.goodput_series_MBps[t]);
    }
  }
  return 0;
}
