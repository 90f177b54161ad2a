// vdpbench: the repo benchmark. Runs one workload (vdpbench/workloads.h
// says why each exists) through the library's public entry points, checks
// every operation against an oracle, and prints the metrics the repo's
// BENCHMARK.json names. Normally started through vdpbench/run.py, which
// builds this package first:
//
//   python3 vdpbench/run.py --workload release|ingest|hostile-fleet
//                           --seed N --seconds S --trace 0|1
//
// Steadiness is by design. On the 4-vCPU host this benchmark was tuned on,
// six 25-s runs of one fixed single-threaded loop (decoding 500 modp-256
// uploads) gave medians from 81.7 to 117.7 ms, while a register-only
// multiply chain timed between those loops stayed at 11.1-12.3 ms. Pinned
// to each vCPU in turn, one pass decoding 256 uploads took 42-84 ms and the
// chain 24-27 ms: the decode's throughput-bound big-integer arithmetic slows
// whenever the host is busier, the latency-bound chain does not. Most
// run-to-run spread therefore comes from the host, not the program. So every
// run measures many operations and reports medians of per-run figures,
// nothing is driven by timers or injected faults, and the thread budget
// (producer + pool workers + server processes) never exceeds nproc -- the
// benchmark refuses to run where it would.
//
// Output: human-readable lines (host stamp, every metric with its unit,
// and with --trace 1 a per-layer table), then as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones. A traced run alternates traced and untraced operations, so the
// tracing overhead is measured under the same host conditions, and writes
// its spans and counters as a vdp.runlog/v1 log (--runlog) that
// tools/metrics_report renders.
//
// Timing sources, all outside the library: spans and stopwatches the
// benchmark puts around its own calls into public functions (and a
// Prover<G> subclass that wraps the prover's steps), the StageTimings that
// RunProtocol returns, the trace spans the library records when given
// VerifyOptions::tracer, and deltas of obs::MetricsRegistry::Global().
//
// setup_s is the median of 21 cold set-ups, each in a fresh process (this
// binary re-run with --setup-only), because the fixed-base tables are cached
// per process and a second set-up in one process would skip them.
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/runlog.h"
#include "vdpbench/workloads.h"

extern char** environ;

namespace vdpbench {
namespace {

#ifndef VDPBENCH_BUILD_TYPE
#define VDPBENCH_BUILD_TYPE "unknown"
#endif

struct Metric {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (BENCHMARK.json "end_to_end"), printed by an
// untraced run. One operation is a release on `release` and a batch (bytes
// in to VerifyReport out) on `ingest` and `hostile-fleet`. The median
// latency and the throughput are printed too but not gated: on a host whose
// cores are shared, one operation's time swings with the load of other
// tenants (an ingest batch's single-threaded decode takes anywhere from ~95
// to ~165 ms), and the median and the mean of that wide distribution follow
// the share of busy periods in each run. Between 10-run sets of the same
// code the median moved 27% and the spread of the throughput reached 0.28,
// beyond the 25% any bound may allow; the p90, which sits among the slow
// operations, stayed within both (vdpbench/STEADINESS.md).
const std::vector<Metric> kEndToEnd = {
    {"op_ms.p90", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

// The per-layer metrics (BENCHMARK.json "per_layer"), printed by a traced
// run as medians per traced operation; layers a workload does not exercise
// read 0. fleet.retries and fleet.shards_recovered are run totals.
const std::vector<Metric> kPerLayer = {
    {"core.validate_ms", "ms"},
    {"core.aggregate_ms", "ms"},
    {"core.check_ms", "ms"},
    {"core.unattributed_ms", "ms"},
    {"sigma.prove_ms", "ms"},
    {"sigma.verify_ms", "ms"},
    {"morra.ms", "ms"},
    {"morra.prover_party_ms", "ms"},
    {"wire.decode_us_per_upload", "us"},
    {"group.decode_us_per_element", "us"},
    {"verify.submit_ms", "ms"},
    {"verify.backpressure_ms", "ms"},
    {"verify.finish_ms", "ms"},
    {"verify.combine_ms", "ms"},
    {"shard.structure_ms", "ms"},
    {"shard.rlc_ms", "ms"},
    {"shard.fallback_ms", "ms"},
    {"shard.fallback_shards", "count"},
    {"batch.msm_scalars_per_upload", "count"},
    {"batch.msm_calls_per_op", "count"},
    {"net.dispatch_ms", "ms"},
    {"net.server_shard_ms", "ms"},
    {"net.transport_ms", "ms"},
    {"wire.bytes_out_per_upload", "bytes"},
    {"fleet.retries", "count"},
    {"fleet.shards_recovered", "count"},
    {"obs.unattributed_pct", "%"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.traced_ops", "count"},
};

// Layers on the operation's critical path, in order, as run-log stage names.
// What they leave of the operation's wall time is the unattributed row.
const std::vector<std::pair<const char*, const char*>> kReleasePath = {
    {"client_validate", "core.validate_ms"}, {"sigma_prove", "sigma.prove_ms"},
    {"sigma_verify", "sigma.verify_ms"},     {"morra", "morra.ms"},
    {"aggregate", "core.aggregate_ms"},      {"check", "core.check_ms"},
};
const std::vector<std::pair<const char*, const char*>> kStreamPath = {
    {"decode", "wire.decode_ms"},
    {"submit", "verify.submit_ms"},
    {"finish", "verify.finish_ms"},
};

// Cold set-ups per run; setup_s is their median.
constexpr size_t kSetupSamples = 21;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool setup_only = false;
  bool flip_oracle = false;
  std::string server_fault;
  std::string work_dir = ".";
  std::string runlog;
};

void Usage() {
  std::fprintf(stderr,
               "usage: vdp_bench --workload release|ingest|hostile-fleet --seed N "
               "--seconds S --trace 0|1\n"
               "                 [--tiny] [--work-dir DIR] [--runlog PATH]\n"
               "                 [--flip-oracle] [--server-fault MODE:ID] "
               "[--setup-only]\n");
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) {
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--setup-only") {
      args.setup_only = true;
    } else if (flag == "--flip-oracle") {
      args.flip_oracle = true;
    } else if (flag == "--workload" && (v = value())) {
      args.workload = *v;
    } else if (flag == "--seed" && (v = value())) {
      args.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (flag == "--seconds" && (v = value())) {
      args.seconds = std::strtod(v->c_str(), nullptr);
    } else if (flag == "--trace" && (v = value())) {
      args.trace = *v == "1";
    } else if (flag == "--server-fault" && (v = value())) {
      args.server_fault = *v;
    } else if (flag == "--work-dir" && (v = value())) {
      args.work_dir = *v;
    } else if (flag == "--runlog" && (v = value())) {
      args.runlog = *v;
    } else {
      std::fprintf(stderr, "vdp_bench: unknown or incomplete flag '%s'\n", flag.c_str());
      return std::nullopt;
    }
  }
  if (args.workload != "release" && args.workload != "ingest" &&
      args.workload != "hostile-fleet") {
    std::fprintf(stderr, "vdp_bench: --workload must be release, ingest or hostile-fleet\n");
    return std::nullopt;
  }
  if (!(args.seconds > 0)) {
    std::fprintf(stderr, "vdp_bench: --seconds must be > 0\n");
    return std::nullopt;
  }
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  const Sizes sizes = args.tiny ? Sizes::Tiny() : Sizes{};
  if (args.workload == "release") {
    return std::make_unique<ReleaseWorkload>(sizes);
  }
  return std::make_unique<StreamWorkload>(args.workload == "hostile-fleet", sizes,
                                          args.work_dir, args.server_fault);
}

// --- host stamp -------------------------------------------------------------

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

// --- statistics -------------------------------------------------------------

// Linear interpolation between closest ranks; q in [0, 1].
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

uint64_t CounterNow(const char* name) {
  return vdp::obs::MetricsRegistry::Global().Snapshot().CounterValue(name);
}

// --- cold set-up probes -----------------------------------------------------

std::string SelfExe() {
  char exe[PATH_MAX];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    return "";
  }
  exe[n] = '\0';
  return exe;
}

// Runs this binary with --setup-only in a fresh process and returns the
// set-up time it reports.
std::optional<double> ColdSetupSeconds(const Args& args) {
  const std::string exe = SelfExe();
  if (exe.empty()) {
    return std::nullopt;
  }
  std::vector<std::string> argv_s = {exe,          "--workload", args.workload,
                                     "--seed",     std::to_string(args.seed),
                                     "--work-dir", args.work_dir, "--setup-only"};
  if (args.tiny) {
    argv_s.push_back("--tiny");
  }
  if (!args.server_fault.empty()) {
    argv_s.push_back("--server-fault");
    argv_s.push_back(args.server_fault);
  }
  std::vector<char*> argv;
  for (std::string& a : argv_s) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);

  int out[2];
  if (pipe2(out, O_CLOEXEC) != 0) {
    return std::nullopt;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  std::string text;
  if (rc == 0) {
    char buf[512];
    for (;;) {
      const ssize_t n = read(out[0], buf, sizeof(buf));
      if (n > 0) {
        text.append(buf, static_cast<size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
  }
  close(out[0]);
  if (rc != 0) {
    return std::nullopt;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const size_t at = text.find("setup_s ");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || at == std::string::npos) {
    return std::nullopt;
  }
  return std::strtod(text.c_str() + at + 8, nullptr);
}

// --- the run ----------------------------------------------------------------

struct TracedOp {
  double wall_ms = 0;
  Layers layers;
};

// Folds the spans of one traced operation into its layers: the library's
// shard pipeline spans (structure/rlc/fallback, wherever they ran) and the
// remote fleet's dispatch spans with the server-side shard spans stitched
// under them.
void AttributeSpans(const std::vector<vdp::obs::SpanRecord>& spans, Layers* layers) {
  double structure = 0, rlc = 0, fallback = 0, dispatch = 0, server_shard = 0;
  for (const vdp::obs::SpanRecord& span : spans) {
    const double ms = static_cast<double>(span.duration_us) / 1000.0;
    if (span.name == "structure") {
      structure += ms;
    } else if (span.name == "rlc") {
      rlc += ms;
    } else if (span.name == "fallback") {
      fallback += ms;
    } else if (span.name == "dispatch") {
      dispatch += ms;
    } else if (span.name == "shard" && span.proc.rfind("server:", 0) == 0) {
      server_shard += ms;
    }
  }
  Layers& l = *layers;
  l["shard.structure_ms"] = structure;
  l["shard.rlc_ms"] = rlc;
  l["shard.fallback_ms"] = fallback;
  l["net.dispatch_ms"] = dispatch;
  l["net.server_shard_ms"] = server_shard;
  l["net.transport_ms"] = dispatch > 0 ? dispatch - server_shard : 0;
}

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResultLine(bool correct, size_t attempted, size_t failed,
                     const std::vector<std::pair<Metric, double>>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + std::string(metrics[i].first.name) +
            "\": {\"value\": " + FormatValue(metrics[i].second) + ", \"unit\": \"" +
            metrics[i].first.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int Main(int argc, char** argv) {
  auto parsed = ParseArgs(argc, argv);
  if (!parsed.has_value()) {
    Usage();
    return 2;
  }
  const Args args = *parsed;
  std::unique_ptr<Workload> workload = MakeWorkload(args);

  if (args.setup_only) {
    vdp::Stopwatch watch;
    const bool ok = workload->Setup();
    const double seconds = watch.ElapsedSeconds();
    if (!ok) {
      return 1;
    }
    std::printf("setup_s %.9f\n", seconds);
    return 0;
  }

  // Host stamp and thread budget.
  const size_t nproc = Nproc();
  const size_t threads =
      workload->producer_threads() + workload->pool_threads() + workload->servers();
  const std::string host = "nproc=" + std::to_string(nproc) + " cpu=\"" + CpuModel() +
                           "\" build=" + VDPBENCH_BUILD_TYPE +
                           " git=" + vdp::obs::GitSha() +
                           " pool=" + std::to_string(workload->pool_threads()) +
                           " producer=" + std::to_string(workload->producer_threads()) +
                           " servers=" + std::to_string(workload->servers()) +
                           " threads=" + std::to_string(threads) + "/" + std::to_string(nproc);
  std::printf("vdpbench: workload=%s seed=%llu seconds=%g trace=%d%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              args.tiny ? " (tiny sizes)" : "");
  std::printf("host: %s\n", host.c_str());
  if (threads > nproc) {
    std::fprintf(stderr,
                 "vdp_bench: refusing to run: producer + pool + servers = %zu threads "
                 "exceed nproc = %zu\n",
                 threads, nproc);
    return 3;
  }

  // setup_s: cold set-ups in fresh processes, before this process warms up.
  std::vector<double> setup_samples;
  for (size_t i = 0; i < kSetupSamples; ++i) {
    std::optional<double> s = ColdSetupSeconds(args);
    if (!s.has_value()) {
      std::fprintf(stderr, "vdp_bench: cold set-up probe failed\n");
      return 1;
    }
    setup_samples.push_back(*s);
  }

  vdp::Stopwatch generate_watch;
  workload->Generate(args.seed, args.flip_oracle);
  const double generate_s = generate_watch.ElapsedSeconds();
  if (!workload->Setup()) {
    return 1;
  }

  const uint64_t retries_before = CounterNow(vdp::obs::kFleetRetries);
  const uint64_t recovered_before = CounterNow(vdp::obs::kFleetShardsRecovered);
  const bool warmup_ok = workload->Warmup();

  // The timed phase. A traced run alternates traced and untraced operations.
  const auto& path = args.workload == "release" ? kReleasePath : kStreamPath;
  vdp::obs::TraceCollector collector;
  std::vector<vdp::obs::SpanRecord> kept_spans;
  std::vector<double> untraced_ms;
  std::vector<TracedOp> traced;
  size_t attempted = 0;
  size_t failed = 0;
  size_t uploads = 0;
  double untraced_wall_ms = 0;
  vdp::Stopwatch loop_watch;
  for (size_t op = 1; loop_watch.ElapsedSeconds() < args.seconds; ++op) {
    const bool trace_op = args.trace && op % 2 == 1;
    OpOutcome outcome;
    if (trace_op) {
      TracedOp t;
      const uint64_t scalars = CounterNow(vdp::obs::kMsmScalars);
      const uint64_t calls = CounterNow(vdp::obs::kMsmCalls);
      const uint64_t bytes_out = CounterNow(vdp::obs::kWireBytesOut);
      vdp::obs::TraceSpan op_span(&collector, "op", collector.RootContext(), "vdpbench");
      op_span.set_detail("op=" + std::to_string(op));
      outcome = workload->Run(op, &collector, op_span.context(), &t.layers);
      op_span.End();
      const double n = static_cast<double>(outcome.uploads);
      t.layers["batch.msm_scalars_per_upload"] =
          static_cast<double>(CounterNow(vdp::obs::kMsmScalars) - scalars) / n;
      t.layers["batch.msm_calls_per_op"] =
          static_cast<double>(CounterNow(vdp::obs::kMsmCalls) - calls);
      t.layers["wire.bytes_out_per_upload"] =
          static_cast<double>(CounterNow(vdp::obs::kWireBytesOut) - bytes_out) / n;
      std::vector<vdp::obs::SpanRecord> spans = collector.TakeSpans();
      AttributeSpans(spans, &t.layers);
      double path_ms = 0;
      for (const auto& [stage, layer] : path) {
        path_ms += t.layers[layer];
      }
      t.layers["core.unattributed_ms"] =
          args.workload == "release" ? outcome.wall_ms - path_ms : 0;
      t.layers["obs.unattributed_pct"] = 100.0 * (outcome.wall_ms - path_ms) / outcome.wall_ms;
      kept_spans.insert(kept_spans.end(), std::make_move_iterator(spans.begin()),
                        std::make_move_iterator(spans.end()));
      t.wall_ms = outcome.wall_ms;
      traced.push_back(std::move(t));
    } else {
      outcome = workload->Run(op, nullptr, {}, nullptr);
      untraced_ms.push_back(outcome.wall_ms);
      untraced_wall_ms += outcome.wall_ms;
      uploads += outcome.uploads;
    }
    ++attempted;
    failed += outcome.correct ? 0 : 1;
  }
  const double loop_s = loop_watch.ElapsedSeconds();
  const uint64_t retries = CounterNow(vdp::obs::kFleetRetries) - retries_before;
  const uint64_t recovered = CounterNow(vdp::obs::kFleetShardsRecovered) - recovered_before;
  const double peak_rss_mib = static_cast<double>(vdp::obs::CurrentRssHwmKb()) / 1024.0;
  Layers outside;
  const bool outside_ok = !args.trace || workload->MeasureOutsideOps(&outside);

  // Verdict of the run: every operation matched its oracle, the warm-up's
  // checks held, and the fleet measured verification, not recovery.
  const bool fleet_clean = retries == 0 && recovered == 0;
  const bool correct = warmup_ok && outside_ok && failed == 0 && fleet_clean && attempted > 0;
  if (!warmup_ok || !outside_ok) {
    std::printf("FAIL: the warm-up operation, its transcript audit or the decode probe did not "
                "match the oracle\n");
  }
  if (!fleet_clean) {
    std::printf("FLAG: fleet.retries=%llu fleet.shards_recovered=%llu -- this run measured "
                "fleet recovery, not verification\n",
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(recovered));
  }

  const std::string op_name = args.workload == "release" ? "release_ms" : "batch_ms";
  const double p50 = Quantile(untraced_ms, 0.5);
  const double p90 = Quantile(untraced_ms, 0.9);
  const double uploads_per_s =
      untraced_wall_ms > 0 ? 1000.0 * static_cast<double>(uploads) / untraced_wall_ms : 0;
  const double setup_s = Median(setup_samples);
  std::printf("inputs: generated in %.2f s; timed phase %.2f s: %zu operations (%zu untraced, "
              "%zu traced) after 1 warm-up\n",
              generate_s, loop_s, attempted, untraced_ms.size(), traced.size());
  std::printf("%s.p50 = %.4f ms  (printed, not gated; n=%zu)\n", op_name.c_str(), p50,
              untraced_ms.size());
  std::printf("%s.p90 = %.4f ms  (op_ms.p90, n=%zu)\n", op_name.c_str(), p90,
              untraced_ms.size());
  std::printf("uploads_per_s = %.2f 1/s  (printed, not gated; %zu uploads per operation)\n",
              uploads_per_s, workload->uploads_per_op());
  std::printf("setup_s = %.6f s  (median of %zu cold set-ups)\n", setup_s,
              setup_samples.size());
  std::printf("peak_rss_mib = %.2f MiB\n", peak_rss_mib);
  std::printf("failed_ratio = %.6f  (%zu of %zu operations differ from the oracle)\n",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0,
              failed, attempted);

  if (!args.trace) {
    PrintResultLine(correct, attempted, failed,
                    {{kEndToEnd[0], p90}, {kEndToEnd[1], setup_s}, {kEndToEnd[2], peak_rss_mib}});
    return 0;
  }

  // Per-layer figures: medians per traced operation.
  std::vector<double> traced_ms;
  for (const TracedOp& t : traced) {
    traced_ms.push_back(t.wall_ms);
  }
  const double traced_p50 = Median(traced_ms);
  auto layer_median = [&](const std::string& name) {
    if (outside.count(name) != 0) {
      return outside.at(name);
    }
    std::vector<double> values;
    for (const TracedOp& t : traced) {
      auto it = t.layers.find(name);
      values.push_back(it != t.layers.end() ? it->second : 0.0);
    }
    return Median(values);
  };
  Layers summary;
  for (const Metric& m : kPerLayer) {
    summary[m.name] = layer_median(m.name);
  }
  summary["fleet.retries"] = static_cast<double>(retries);
  summary["fleet.shards_recovered"] = static_cast<double>(recovered);
  summary["obs.trace_overhead_pct"] = p50 > 0 ? 100.0 * (traced_p50 / p50 - 1.0) : 0;
  summary["obs.traced_ops"] = static_cast<double>(traced.size());

  std::printf("\nper-layer time of one %s (median of %zu traced operations, %.3f ms p50):\n",
              args.workload == "release" ? "release" : "batch", traced.size(), traced_p50);
  std::printf("  %-30s %12s %9s\n", "critical path", "ms/op", "% of op");
  for (const auto& [stage, layer] : path) {
    const double ms = layer_median(layer);
    std::printf("  %-30s %12.3f %8.1f%%\n", stage, ms, 100.0 * ms / traced_p50);
  }
  std::printf("  %-30s %12s %8.1f%%\n", "unattributed", "",
              summary["obs.unattributed_pct"]);
  std::printf("  all layers (shard.* and net.* run on lanes or servers, beside the path):\n");
  for (const Metric& m : kPerLayer) {
    const double v = summary[m.name];
    const bool is_ms = std::string(m.unit) == "ms";
    if (is_ms) {
      std::printf("  %-30s %12.3f %8.1f%%\n", m.name, v, 100.0 * v / traced_p50);
    } else {
      std::printf("  %-30s %12.3f %-6s\n", m.name, v, m.unit);
    }
  }

  if (!args.runlog.empty()) {
    auto log = vdp::obs::RunLogWriter::Open(args.runlog);
    if (log == nullptr) {
      std::fprintf(stderr, "vdp_bench: cannot write run-log %s\n", args.runlog.c_str());
      return 1;
    }
    vdp::obs::RunHeader header;
    header.tool = "vdpbench";
    header.group = G::Name();
    header.n_uploads = workload->uploads_per_op();
    header.num_shards = workload->shards_per_op();
    header.pool_threads = workload->pool_threads();
    header.remote_endpoints = workload->servers();
    header.notes = "workload=" + args.workload + " seed=" + std::to_string(args.seed) + " " +
                   host;
    log->Header(header);
    for (const TracedOp& t : traced) {
      std::vector<std::pair<std::string, double>> stages;
      for (const auto& [stage, layer] : path) {
        stages.emplace_back(stage, t.layers.at(layer));
      }
      stages.emplace_back("unattributed",
                          t.wall_ms * t.layers.at("obs.unattributed_pct") / 100.0);
      std::vector<std::pair<std::string, double>> extra;
      for (const auto& [name, value] : t.layers) {
        extra.emplace_back(name, value);
      }
      log->Stages(args.workload, workload->backend_name(), stages, t.wall_ms, extra);
    }
    log->Spans(kept_spans);
    log->Metrics(vdp::obs::MetricsRegistry::Global().Snapshot());
    log->Footer();
    std::printf("run-log: %s\n", log->path().c_str());
  }

  std::vector<std::pair<Metric, double>> metrics;
  for (const Metric& m : kPerLayer) {
    metrics.emplace_back(m, summary[m.name]);
  }
  PrintResultLine(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace vdpbench

int main(int argc, char** argv) { return vdpbench::Main(argc, argv); }
