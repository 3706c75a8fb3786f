#include "perfbench/src/common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "src/apps/standard_modules.h"
#include "src/class_system/loader.h"

namespace perfbench {

using atk::InteractionManager;
using atk::PixelImage;
using atk::Rect;
using atk::observability::SpanRecord;

FrameDiff CheckFrameAgainstFullRepaint(InteractionManager& im,
                                       const std::vector<Rect>& op_damage,
                                       const Rect& strip) {
  // The oracle's own repaints are not part of any op: keep them out of the
  // traced run's spans.
  const bool tracing = atk::observability::Enabled();
  atk::observability::Tracer::Instance().SetEnabled(false);
  PixelImage incremental = im.window()->Display();
  im.PostUpdate();
  im.RunUpdateCycle();
  im.window()->Flush();
  const PixelImage& full = im.window()->Display();

  FrameDiff diff;
  diff.pixels = incremental.DiffCount(full);
  if (diff.pixels > 0) {
    int x0 = full.width();
    int y0 = full.height();
    int x1 = -1;
    int y1 = -1;
    for (int y = 0; y < full.height(); ++y) {
      for (int x = 0; x < full.width(); ++x) {
        if (!(incremental.GetPixel(x, y) == full.GetPixel(x, y))) {
          x0 = std::min(x0, x);
          y0 = std::min(y0, y);
          x1 = std::max(x1, x);
          y1 = std::max(y1, y);
        }
      }
    }
    diff.bbox = Rect{x0, y0, x1 - x0 + 1, y1 - y0 + 1};
    diff.inside_strip = strip.Contains(diff.bbox);
  }

  // Re-key the clip memo on the op's own damage (repaints identical pixels).
  for (const Rect& r : op_damage) {
    im.WantUpdate(nullptr, r);
  }
  im.RunUpdateCycle();
  im.window()->Flush();
  atk::observability::Tracer::Instance().SetEnabled(tracing);
  return diff;
}

std::string DescribeDiff(const std::string& what, const FrameDiff& d) {
  return what + ": frame differs from a full repaint in " + std::to_string(d.pixels) +
         " px within [" + std::to_string(d.bbox.x) + "," + std::to_string(d.bbox.y) + " " +
         std::to_string(d.bbox.width) + "x" + std::to_string(d.bbox.height) + "]" +
         (d.inside_strip ? " (scroll-bar strip only)" : "");
}

namespace {

std::string LayerOfViewClass(std::string_view cls) {
  if (cls == "textview" || cls == "pagedtextview") return "text";
  if (cls == "scrollbar") return "scroll";
  if (cls == "frame" || cls == "messageline") return "frame";
  return "components";
}

std::string LayerOfSpan(std::string_view name) {
  auto starts = [&](std::string_view p) { return name.substr(0, p.size()) == p; };
  if (starts("bench.")) {
    std::string_view rest = name.substr(6);
    std::string_view layer = rest.substr(0, rest.find('.'));
    if (layer == "base" || layer == "text" || layer == "wm" || layer == "datastream" ||
        layer == "server" || layer == "ez") {
      return std::string(layer);
    }
    return "other";
  }
  if (starts("im.") || starts("view.")) return "base";
  if (starts("update.")) return LayerOfViewClass(name.substr(7));
  if (starts("server.") || starts("client.")) return "server";
  if (starts("datastream.")) return "datastream";
  return "other";
}

}  // namespace

const std::vector<std::string>& SelfTimeLayers() {
  static const std::vector<std::string> layers = {
      "base", "text", "scroll", "frame", "components", "wm", "datastream", "server", "ez",
      "other"};
  return layers;
}

void SelfTimeAccumulator::Add(const std::vector<SpanRecord>& spans) {
  // Order by thread, then start, parents (shallower) before their children.
  std::vector<const SpanRecord*> order;
  order.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    order.push_back(&s);
  }
  std::sort(order.begin(), order.end(), [](const SpanRecord* a, const SpanRecord* b) {
    if (a->thread != b->thread) return a->thread < b->thread;
    if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
    return a->depth < b->depth;
  });
  std::vector<double> child_ns(order.size(), 0.0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < order.size(); ++i) {
    const SpanRecord& s = *order[i];
    while (!stack.empty()) {
      const SpanRecord& top = *order[stack.back()];
      if (top.thread == s.thread && top.depth < s.depth &&
          s.start_ns < top.start_ns + top.duration_ns) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) {
      child_ns[stack.back()] += static_cast<double>(s.duration_ns);
    }
    stack.push_back(i);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    double self = static_cast<double>(order[i]->duration_ns) - child_ns[i];
    self_ns_[LayerOfSpan(order[i]->name_view())] += std::max(0.0, self);
  }
}

size_t LatencyHistogram::Index(uint64_t ns) {
  if (ns < kSub) {
    return static_cast<size_t>(ns);
  }
  const int exponent = std::min(63 - __builtin_clzll(ns), kMaxExponent);
  const uint64_t sub = std::min((ns >> (exponent - kSubBits)) - kSub, kSub - 1);
  return static_cast<size_t>(kSub * (exponent - kSubBits + 1) + sub);
}

void LatencyHistogram::Add(double us) {
  ++buckets_[Index(static_cast<uint64_t>(std::max(0.0, us) * 1e3))];
  ++count_;
  sum_us_ += us;
}

double LatencyHistogram::ValueAtRank(uint64_t rank) const {
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (rank < seen + buckets_[i]) {
      double low = static_cast<double>(i);
      double width = 1;
      if (i >= kSub) {
        const int shift = static_cast<int>(i / kSub) - 1;
        low = static_cast<double>((kSub + i % kSub) << shift);
        width = static_cast<double>(uint64_t{1} << shift);
      }
      return low + width * (static_cast<double>(rank - seen) + 0.5) /
                       static_cast<double>(buckets_[i]);
    }
    seen += buckets_[i];
  }
  return 0;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const double rank = q * static_cast<double>(count_ - 1);
  const uint64_t lo = static_cast<uint64_t>(std::floor(rank));
  const uint64_t hi = std::min(count_ - 1, lo + 1);
  const double a = ValueAtRank(lo);
  const double b = hi == lo ? a : ValueAtRank(hi);
  return (a + (b - a) * (rank - static_cast<double>(lo))) / 1e3;
}

void Recorder::Note(const std::string& what) {
  if (notes_.size() < 8) {
    notes_.push_back(what);
  }
}

void Recorder::Fail(const std::string& what) {
  ++failed_;
  Note("failed: " + what);
}

void Recorder::Problem(const std::string& what) {
  ++problems_;
  Note("wrong: " + what);
}

void Recorder::FailStaleStrip(const std::string& what, const FrameDiff& diff) {
  Fail(what);
  ++failed_in_strip_;
  failed_bbox_ = failed_bbox_.IsEmpty() ? diff.bbox : failed_bbox_.Union(diff.bbox);
}

void Recorder::StaleStrip(const FrameDiff& diff) {
  ++stale_strip_;
  stale_bbox_ = stale_bbox_.IsEmpty() ? diff.bbox : stale_bbox_.Union(diff.bbox);
}

double LoadToolkitModules() {
  static const double load_us = [] {
    atk::RegisterStandardModules();
    uint64_t start = NowNs();
    for (const char* module :
         {"text", "scroll", "frame", "table", "drawing", "equation", "raster", "app-ez"}) {
      atk::Loader::Instance().Require(module);
    }
    return static_cast<double>(NowNs() - start) / 1e3;
  }();
  return load_us;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(values.size() - 1, lo + 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb * 1024.0;
    }
  }
  return 0;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

}  // namespace perfbench
