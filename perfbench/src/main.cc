// atk_perfbench — one closed-loop workload per process, one result line.
//
//   atk_perfbench --workload type|open|collab --seed N --seconds S --trace 0|1
//                 [--perfetto FILE]
//   atk_perfbench --selftest
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// alternates rounds: untraced ones give the per-layer timings and counts
// (taken from outside, around public calls); traced ones run with the
// toolkit tracer on (benchmark spans around each call plus the toolkit's
// own spans) and give per-layer self time, the traced-vs-untraced p50
// difference, and a Perfetto file of the last traced round.
// The last line of standard output is the result JSON; the line before it
// carries reference figures (p99, sample count, machine, build type).

#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/selftest.h"
#include "src/observability/memory.h"
#include "src/observability/trace_export.h"

extern char** environ;

namespace perfbench {
namespace {

using atk::observability::Tracer;

// Set-ups timed per run, one at its start and the rest spread over it
// (setup_s is their median).
constexpr uint64_t kSetUpsPerRun = 10;

// One metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

enum class Agg { kNsPerOp, kPerOp, kMedian };

struct LayerMetric {
  const char* name;
  const char* unit;
  Agg agg;
};

// The per-layer metrics of a traced run, in BENCHMARK.json order.  Every
// workload prints all of them; a layer a workload does not touch reads 0.
const LayerMetric kLayerMetrics[] = {
    {"base.dispatch_us", "us", Agg::kNsPerOp},
    {"base.update_us", "us", Agg::kNsPerOp},
    {"wm.flush_us", "us", Agg::kNsPerOp},
    {"text.lines_reused_per_op", "count", Agg::kPerOp},
    {"base.damage_rects_per_op", "count", Agg::kPerOp},
    {"base.clip_reuse_per_op", "count", Agg::kPerOp},
    {"graphics.region_bands_p50", "count", Agg::kMedian},
    {"datastream.read_us", "us", Agg::kNsPerOp},
    {"text.attach_us", "us", Agg::kNsPerOp},
    {"ez.open_us", "us", Agg::kNsPerOp},
    {"datastream.objects_decoded_per_op", "count", Agg::kPerOp},
    {"text.embedded_views_per_op", "count", Agg::kPerOp},
    {"observability.accounted_peak_bytes", "B", Agg::kMedian},
    {"server.submit_us", "us", Agg::kNsPerOp},
    {"server.pump_us", "us", Agg::kNsPerOp},
    {"server.client_pump_us", "us", Agg::kNsPerOp},
    {"server.link_tick_us", "us", Agg::kNsPerOp},
    {"server.frames_per_op", "count", Agg::kPerOp},
    {"server.ticks_per_op", "count", Agg::kPerOp},
    {"server.retransmits_per_op", "count", Agg::kPerOp},
    {"observability.metric_names", "count", Agg::kMedian},
    {"server.attach_us", "us", Agg::kMedian},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "atk_perfbench: %s\nusage: atk_perfbench --workload type|open|collab --seed N "
               "--seconds S --trace 0|1 [--perfetto FILE]\n       atk_perfbench --selftest\n",
               why);
  return 2;
}

std::string CpuModel() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

using Factory = std::unique_ptr<Workload> (*)(const Options&, Recorder&);

// Sets the workload up, timing it into `setup_s`.
bool TimedSetUp(Workload& wl, Recorder& setup_rec, std::vector<double>& setup_s) {
  const uint64_t start = NowNs();
  const bool ok = wl.SetUp(setup_rec);
  setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  return ok;
}

// Runs whole rounds until `seconds` have passed.  After the untraced round
// that ends each tenth of the run, it tears the workload down, sets it up
// again from the same inputs (timed) and runs one uncounted warm-up round
// into `warm`: set-up is timed across the run's machine states like the
// ops are, and only one instance of the program's state is ever alive.
// With `self_time`, every second round runs with the toolkit tracer on into
// `traced` (its spans drained after the round), so traced and untraced
// rounds interleave and the tracing overhead is not confounded with drift
// in machine speed.  Returns the number of rounds, or -1 if a repeated
// set-up failed.
int RunPhase(Workload& wl, const Options& opt, Recorder& untraced, Recorder& traced,
             Recorder& warm, Recorder& setup_rec, std::vector<double>& setup_s,
             SelfTimeAccumulator* self_time, std::vector<atk::observability::SpanRecord>* last) {
  const uint64_t start = NowNs();
  const uint64_t length = static_cast<uint64_t>(opt.seconds * 1e9);
  Tracer& tracer = Tracer::Instance();
  int rounds = 0;
  do {
    if (self_time != nullptr && rounds % 2 == 1) {
      tracer.SetEnabled(true);
      wl.RunRound(traced);
      tracer.SetEnabled(false);
      if (tracer.dropped() > 0) {
        traced.Problem("span ring overflowed within one round");
      }
      *last = tracer.Collect();
      tracer.Clear();
      self_time->Add(*last);
    } else {
      wl.RunRound(untraced);
      if (setup_s.size() < kSetUpsPerRun &&
          NowNs() - start >= length / kSetUpsPerRun * setup_s.size()) {
        wl.TearDown();
        if (!TimedSetUp(wl, setup_rec, setup_s)) {
          return -1;
        }
        wl.RunRound(warm);
      }
    }
    ++rounds;
  } while (NowNs() - start < length);
  return rounds;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::string Deciles(const LatencyHistogram& h) {
  std::string out;
  for (int i = 1; i <= 9; ++i) {
    out += (i > 1 ? ", " : "") + FormatNumber(std::round(h.Quantile(i / 10.0) * 10) / 10);
  }
  return out;
}

std::string JsonRect(const atk::Rect& r) {
  return "[" + std::to_string(r.x) + ", " + std::to_string(r.y) + ", " +
         std::to_string(r.width) + ", " + std::to_string(r.height) + "]";
}

double PerLayerValue(const LayerMetric& m, const Recorder& rec, const Recorder& setup) {
  const double ops = static_cast<double>(std::max<uint64_t>(rec.attempted(), 1));
  switch (m.agg) {
    case Agg::kNsPerOp: {
      auto it = rec.ns_sums().find(m.name);
      return it == rec.ns_sums().end() ? 0 : static_cast<double>(it->second) / 1e3 / ops;
    }
    case Agg::kPerOp: {
      auto it = rec.counts().find(m.name);
      return it == rec.counts().end() ? 0 : it->second / ops;
    }
    case Agg::kMedian: {
      for (const Recorder* r : {&rec, &setup}) {
        auto it = r->all_samples().find(m.name);
        if (it != r->all_samples().end() && !it->second.empty()) {
          return Median(it->second);
        }
      }
      return 0;
    }
  }
  return 0;
}

int Run(const Options& opt) {
  Factory make = nullptr;
  if (opt.workload == "type") {
    make = MakeTypeWorkload;
  } else if (opt.workload == "open") {
    make = MakeOpenWorkload;
  } else if (opt.workload == "collab") {
    make = MakeCollabWorkload;
  } else {
    return Usage("unknown workload");
  }

  const double load_us = LoadToolkitModules();
  Recorder setup_rec;
  std::vector<double> setup_s;
  auto set_up_failed = [&setup_rec] {
    for (const std::string& note : setup_rec.notes()) {
      std::fprintf(stderr, "set-up: %s\n", note.c_str());
    }
    std::fprintf(stderr, "atk_perfbench: set-up failed\n");
    return 1;
  };
  std::unique_ptr<Workload> wl = make(opt, setup_rec);
  if (wl == nullptr || !TimedSetUp(*wl, setup_rec, setup_s) || !setup_rec.correct()) {
    return set_up_failed();
  }

  // One warm-up round fills caches and finishes lazy set-up; not counted.
  Recorder warm;
  wl->RunRound(warm);

  // Untraced rounds give the end-to-end metrics (and a traced run's
  // per-layer timings); traced rounds, in traced runs only, give spans.
  Recorder main_rec;
  Recorder traced_rec;
  SelfTimeAccumulator self_time;
  std::vector<atk::observability::SpanRecord> last_spans;
  if (opt.trace) {
    // Allocate the span ring up front; its bytes are the benchmark's, not
    // the workload's, and are taken out of the accounted peak below.
    Tracer::Instance().SetCapacity(1 << 17);
    Tracer::Instance().SetFlowsEnabled(true);
    Tracer::Instance().SetEnabled(true);
    { atk::observability::ScopedSpan ring("bench.ring.allocate"); }
    Tracer::Instance().SetEnabled(false);
    Tracer::Instance().Clear();
  }
  atk::observability::MemoryAccountant& accountant =
      atk::observability::MemoryAccountant::Instance();
  accountant.ResetPeaks();
  const double cpu_start = ThreadCpuSeconds();
  const uint64_t wall_start = NowNs();
  const int rounds = RunPhase(*wl, opt, main_rec, traced_rec, warm, setup_rec, setup_s,
                              opt.trace ? &self_time : nullptr, &last_spans);
  if (rounds < 0) {
    return set_up_failed();
  }
  const int64_t ring_bytes =
      atk::observability::MetricsRegistry::Instance().gauge("obs.mem.trace_ring_bytes").value();
  main_rec.samples("observability.accounted_peak_bytes")
      .push_back(static_cast<double>(accountant.peak() - ring_bytes));
  const atk::observability::TraceSnapshot registered = atk::observability::Snapshot();
  main_rec.samples("observability.metric_names")
      .push_back(static_cast<double>(registered.counters.size() + registered.gauges.size() +
                                     registered.histograms.size()));
  const double peak_rss = PeakRssBytes();
  // Share of the run this thread was on a CPU: well below 1 means the
  // machine (or the host under it) took time away from the benchmark.
  const double cpu_share =
      (ThreadCpuSeconds() - cpu_start) / (static_cast<double>(NowNs() - wall_start) / 1e9);

  const bool correct = setup_rec.correct() && warm.correct() && main_rec.correct() &&
                       traced_rec.correct();
  const uint64_t attempted = main_rec.attempted() + traced_rec.attempted();
  const uint64_t failed = main_rec.failed() + traced_rec.failed();
  const LatencyHistogram& lat = main_rec.latencies();

  Metrics metrics;
  if (!opt.trace) {
    metrics["p90_us"] = {lat.Quantile(0.9), "us"};
    metrics["setup_s"] = {Median(setup_s) + load_us / 1e6, "s"};
    metrics["peak_rss_bytes"] = {peak_rss, "B"};
  } else {
    for (const LayerMetric& m : kLayerMetrics) {
      metrics[m.name] = {PerLayerValue(m, main_rec, setup_rec), m.unit};
    }
    metrics["class_system.load_us"] = {load_us, "us"};
    const double seeded = static_cast<double>(main_rec.attempted() - main_rec.failed());
    metrics["scroll.stale_strip_share"] = {
        seeded > 0 ? static_cast<double>(main_rec.stale_strip_ops()) / seeded : 0, "ratio"};
    const double untraced_p50 = lat.Quantile(0.5);
    const double traced_p50 = traced_rec.latencies().Quantile(0.5);
    metrics["trace.overhead_pct"] = {
        untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 * 100 : 0, "%"};
    const double traced_ops = static_cast<double>(std::max<uint64_t>(traced_rec.attempted(), 1));
    for (const std::string& layer : SelfTimeLayers()) {
      auto it = self_time.self_ns().find(layer);
      double ns = it == self_time.self_ns().end() ? 0 : it->second;
      metrics["self." + layer + "_us"] = {ns / 1e3 / traced_ops, "us"};
    }
    if (!opt.perfetto_path.empty()) {
      atk::observability::TraceSnapshot snapshot = atk::observability::Snapshot();
      snapshot.spans = last_spans;
      std::ofstream out(opt.perfetto_path, std::ios::binary | std::ios::trunc);
      out << atk::observability::TraceExport::ToPerfettoJson(snapshot);
      if (!out.good()) {
        std::fprintf(stderr, "atk_perfbench: cannot write %s\n", opt.perfetto_path.c_str());
        return 1;
      }
    }
  }

  // Reference figures: printed, not gated.
  const uint64_t failed_in_strip = main_rec.failed_in_strip() + traced_rec.failed_in_strip();
  std::string info =
      "{\"info\": {\"workload\": \"" + JsonEscape(opt.workload) +
      "\", \"seed\": " + std::to_string(opt.seed) +
      ", \"build_type\": \"" ATK_PERFBENCH_BUILD_TYPE "\", \"nproc\": " +
      std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + ", \"cpu\": \"" + JsonEscape(CpuModel()) +
      "\", \"inputs\": " + wl->Describe() + ", \"rounds\": " + std::to_string(rounds) +
      ", \"traced_ops\": " + std::to_string(traced_rec.attempted()) +
      ", \"samples\": " + std::to_string(lat.count()) +
      ", \"p50_us\": " + FormatNumber(lat.Quantile(0.5)) +
      ", \"p99_us\": " + FormatNumber(lat.Quantile(0.99)) + ", \"ops_per_s\": " +
      FormatNumber(lat.sum_us() > 0 ? static_cast<double>(lat.count()) / (lat.sum_us() / 1e6)
                                    : 0) +
      ", \"deciles_us\": [" +
      Deciles(lat) + "], \"setups\": " + std::to_string(setup_s.size()) +
      ", \"class_load_us\": " + FormatNumber(load_us) +
      ", \"cpu_share\": " + FormatNumber(cpu_share) +
      ", \"failed_in_strip\": " + std::to_string(failed_in_strip) +
      ", \"failed_strip_bbox\": " + JsonRect(main_rec.failed_strip_bbox()) +
      ", \"stale_strip_seeded_ops\": " + std::to_string(main_rec.stale_strip_ops()) +
      ", \"stale_strip_bbox\": " + JsonRect(main_rec.stale_strip_bbox()) + ", \"notes\": [";
  std::vector<std::string> notes = setup_rec.notes();
  for (const Recorder* r : {&warm, &main_rec, &traced_rec}) {
    notes.insert(notes.end(), r->notes().begin(), r->notes().end());
  }
  for (size_t i = 0; i < notes.size(); ++i) {
    info += (i ? ", \"" : "\"") + JsonEscape(notes[i]) + "\"";
  }
  info += "]}}";
  std::printf("%s\n", info.c_str());

  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + FormatNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Usage;
  perfbench::Options opt;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") {
      return perfbench::RunSelfTests();
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && opt.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (arg == "--perfetto") {
      opt.perfetto_path = value;
    } else {
      return Usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  // Every knob the toolkit reads from the environment is pinned by leaving
  // it unset; refuse to measure a run a shell export could have changed.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "ATK_", 4) == 0) {
      std::fprintf(stderr, "atk_perfbench: refusing to run with %s set\n", *env);
      return 2;
    }
  }
  return perfbench::Run(opt);
}
