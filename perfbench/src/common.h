// Shared machinery of the end-to-end benchmark: run options, the per-run
// recorder (op latencies, per-layer sums, failures), the frame oracle that
// compares an incremental frame with a full-window repaint, span self-time
// attribution, and the result line.
//
// Every layer is timed from outside, around calls into its public
// functions; the toolkit's own counters and spans are only read.

#ifndef ATK_PERFBENCH_SRC_COMMON_H_
#define ATK_PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/interaction_manager.h"
#include "src/graphics/pixel_image.h"
#include "src/observability/observability.h"

namespace perfbench {

// A fault planted on purpose by the self-tests, to show that each check
// can fail.  kNone in every measured run.
enum class Fault {
  kNone,
  kModelDropsKey,       // type: the string model skips one printable key.
  kFramePixel,          // type: one pixel of a finished frame is changed.
  kRoundTripFlip,       // open: one byte of an input document is flipped.
  kReplicaBehindServer  // collab: a replica is edited outside the protocol.
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string perfetto_path;  // Traced runs write their spans here.
  Fault fault = Fault::kNone;
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Times one call into a layer: adds its duration to `sum_ns` and, when the
// toolkit tracer is on, records a "bench.<layer>.<call>" span around it so
// the toolkit's own spans nest inside.
class LayerTimer {
 public:
  LayerTimer(const char* span_name, uint64_t& sum_ns)
      : span_(span_name), sum_ns_(sum_ns), start_(NowNs()) {}
  ~LayerTimer() { sum_ns_ += NowNs() - start_; }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  atk::observability::ScopedSpan span_;
  uint64_t& sum_ns_;
  uint64_t start_;
};

// Where an incremental frame differs from the full repaint of the same
// state.  `pixels` == 0 means the frames are identical.
struct FrameDiff {
  int64_t pixels = 0;
  atk::Rect bbox;
  bool inside_strip = false;  // Every differing pixel lies in `strip`.
};

// The frame oracle.  Runs after an op's own update cycle and flush: saves
// the displayed frame, forces a full-window repaint, and compares.  It then
// re-posts the op's damage and repaints it again, so the per-view clip memo
// is keyed on the op's damage as it would be without the check.
FrameDiff CheckFrameAgainstFullRepaint(atk::InteractionManager& im,
                                       const std::vector<atk::Rect>& op_damage,
                                       const atk::Rect& strip);

// "<what>: frame differs from a full repaint in N px within [x,y WxH]".
std::string DescribeDiff(const std::string& what, const FrameDiff& diff);

// Self time per layer, summed over spans: a span's duration minus the part
// of it its child spans cover.  Spans are attributed by name (see
// LayerOfSpan in common.cc).
class SelfTimeAccumulator {
 public:
  void Add(const std::vector<atk::observability::SpanRecord>& spans);
  const std::map<std::string, double>& self_ns() const { return self_ns_; }

 private:
  std::map<std::string, double> self_ns_;
};

// The layers whose self time a traced run reports (metric self.<layer>_us).
const std::vector<std::string>& SelfTimeLayers();

// Op latencies in fixed memory, so the benchmark's own footprint does not
// grow with the number of ops a run manages: 1024 linear sub-buckets per
// power of two of nanoseconds (relative bucket width under 0.1%), with
// quantiles interpolated between closest ranks as if each bucket's values
// were evenly spread across it.
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kBuckets, 0) {}
  void Add(double us);
  uint64_t count() const { return count_; }
  double sum_us() const { return sum_us_; }
  double Quantile(double q) const;  // q in [0, 1]; microseconds.

 private:
  static constexpr int kSubBits = 10;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr int kMaxExponent = 40;  // 2^41 ns: over half an hour.
  static constexpr size_t kBuckets = kSub * (kMaxExponent - kSubBits + 2);
  static size_t Index(uint64_t ns);
  double ValueAtRank(uint64_t rank) const;  // 0-based; nanoseconds.

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_us_ = 0;
};

// Everything one run measures.
class Recorder {
 public:
  // One finished op: its end-to-end latency.
  void Op(double latency_us) { latencies_.Add(latency_us); }
  void Fail(const std::string& what);       // The op counts as failed.
  void Problem(const std::string& what);    // Output wrong: run not correct.
  // The named fault: a probe op whose frame differs only inside the
  // scroll-bar strip.  Counted as failed; the run stays correct.
  void FailStaleStrip(const std::string& what, const FrameDiff& diff);
  void StaleStrip(const FrameDiff& diff);   // Seeded op, strip-only diff.

  // Per-layer accumulators (sums over the measured ops).
  uint64_t& ns(const std::string& name) { return ns_[name]; }
  double& count(const std::string& name) { return counts_[name]; }
  // Per-op samples of a layer figure, for medians.
  std::vector<double>& samples(const std::string& name) { return samples_[name]; }

  const LatencyHistogram& latencies() const { return latencies_; }
  uint64_t attempted() const { return latencies_.count(); }
  uint64_t failed() const { return failed_; }
  bool correct() const { return problems_ == 0; }
  uint64_t stale_strip_ops() const { return stale_strip_; }
  uint64_t failed_in_strip() const { return failed_in_strip_; }
  const atk::Rect& failed_strip_bbox() const { return failed_bbox_; }
  const std::map<std::string, uint64_t>& ns_sums() const { return ns_; }
  const std::map<std::string, double>& counts() const { return counts_; }
  const std::map<std::string, std::vector<double>>& all_samples() const { return samples_; }
  // Human-readable findings (failures, problems, strip diffs), bounded.
  const std::vector<std::string>& notes() const { return notes_; }  // First few only.
  // Union of the strip-only differences seen on seeded ops.
  const atk::Rect& stale_strip_bbox() const { return stale_bbox_; }

 private:
  void Note(const std::string& what);

  LatencyHistogram latencies_;
  std::map<std::string, uint64_t> ns_;
  std::map<std::string, double> counts_;
  std::map<std::string, std::vector<double>> samples_;
  uint64_t failed_ = 0;
  uint64_t problems_ = 0;
  uint64_t stale_strip_ = 0;
  atk::Rect stale_bbox_;
  uint64_t failed_in_strip_ = 0;
  atk::Rect failed_bbox_;
  std::vector<std::string> notes_;
};

// A workload: its seeded inputs are generated when it is made (not timed),
// then it is set up, runs whole rounds of the same operations, and is torn
// down and set up again from the same inputs a few times in a run.  Only
// one instance of the program's state lives at any time.
class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the program state the ops need from the generated inputs: the
  // part of a run timed as set-up.  Returns false on a set-up failure.
  virtual bool SetUp(Recorder& rec) = 0;
  // Destroys what SetUp built, so that SetUp can run again.
  virtual void TearDown() = 0;
  // Runs one whole round of ops, timing and checking each.
  virtual void RunRound(Recorder& rec) = 0;
  // The make-up of the generated inputs, as a JSON object.
  virtual std::string Describe() = 0;
};

// Each returns the workload with its inputs generated, or nullptr (with a
// problem noted in `rec`) when they cannot be.
std::unique_ptr<Workload> MakeTypeWorkload(const Options& options, Recorder& rec);
std::unique_ptr<Workload> MakeOpenWorkload(const Options& options, Recorder& rec);
std::unique_ptr<Workload> MakeCollabWorkload(const Options& options, Recorder& rec);

// Loads the toolkit modules every workload uses through the class system;
// returns the time the Loader took, in microseconds (first call only).
double LoadToolkitModules();

// Quantile by linear interpolation between closest ranks; q in [0, 1].
double Quantile(std::vector<double> values, double q);

// Peak resident set of this process, in bytes (VmHWM).
double PeakRssBytes();

std::string JsonEscape(std::string_view s);
std::string FormatNumber(double v);

}  // namespace perfbench

#endif  // ATK_PERFBENCH_SRC_COMMON_H_
