// Workload `type`: keystroke -> pixel.
//
// One user edits a 20,000-character styled document in EZ (frame + scroll
// bar + text view) on the simulated X11 backend.  Each op is one user input
// — a key, an ESC-prefixed key, or a click — followed by one RunUpdateCycle
// and one Flush.  A round visits one editing site: two page scrolls (^V or
// ESC-v) towards a seeded target line, a click at a seeded point of the
// text, two caret motions (^F ^B ^N ^P), a burst of 13 typed keys
// (printable, space, newline), then 13 backspaces that take the burst out
// again.  Every round is the same mix of keys and ends on the document it
// started from, so a run is stationary however long it is; targets are
// redrawn when reached, so the sites spread through the document.
//
// Checks after every op: the document text equals an independent string
// model of the key sequence, the caret equals the model's caret, and the
// frame equals a full-window repaint.
//
// Each round ends with one probe op: a page scroll in a second
// EZ window holding a fixed document, the same for every seed.  A body
// scroll that the scroll bar did not start leaves the bar's elevator stale,
// so today the probe's frame differs from a full repaint inside the 14-px
// bar strip, every time; it is counted as failed.  Seeded ops whose frame
// differs only inside that strip are reported (info + a per-layer share)
// but not counted, because how many there are depends on the seed.

#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/apps/ez_app.h"
#include "src/base/keymap.h"
#include "src/components/scroll/scrollbar_view.h"
#include "src/datastream/writer.h"
#include "src/wm/window_system.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using atk::Ctl;
using atk::InputEvent;
using atk::Rect;

constexpr int kBurst = 13;
constexpr int kSeededOpsPerRound = 2 + 1 + 2 + 2 * kBurst;
constexpr int64_t kDocumentChars = 20000;
constexpr uint64_t kProbeDocumentSeed = 0x7E57AB1E;

enum class Key {
  kPrintable,
  kSpace,
  kNewline,
  kBackspace,
  kForward,
  kBackward,
  kNextLine,
  kPreviousLine,
  kPageForward,
  kPageBackward,
  kClick,
};

// One EZ window: the app, its interaction manager, and the scroll bar strip
// in window coordinates.
struct EzWindow {
  std::unique_ptr<atk::EzApp> ez;
  std::unique_ptr<atk::InteractionManager> im;  // Declared after: destroyed first.
  Rect strip;

  bool Open(atk::WindowSystem& ws, const std::string& document) {
    ez = std::make_unique<atk::EzApp>();
    im = ez->Start(ws, {"ez"});
    if (im == nullptr || !ez->LoadDocumentString(document)) {
      return false;
    }
    im->RunOnce();
    atk::View* bar = ez->text_view()->parent();
    if (bar == nullptr) {
      return false;
    }
    Rect b = bar->DeviceBounds();
    strip = Rect{b.x, b.y, atk::ScrollBarView::kBarWidth, b.height};
    return true;
  }

  void Close() {
    im.reset();
    ez.reset();
  }
};

class TypeWorkload : public Workload {
 public:
  explicit TypeWorkload(const Options& options)
      : options_(options), rng_(options.seed * 0x9E3779B97F4A7C15ull + 0x7E) {}

  // The document: seeded styled paragraphs, cut to a fixed length; and the
  // probe window's fixed multi-screen document, independent of the seed.
  bool MakeInputs(Recorder& rec) {
    atk::WorkloadRng gen(options_.seed * 0xD1B54A32D192ED03ull + 0x11);
    std::unique_ptr<atk::TextData> doc = atk::GenerateDocument(gen, 90);
    if (doc->size() < kDocumentChars) {
      rec.Problem("generated document too short");
      return false;
    }
    doc->DeleteRange(kDocumentChars, doc->size() - kDocumentChars);
    text_ = doc->GetAllText();
    document_ = atk::WriteDocument(*doc);
    atk::WorkloadRng probe_gen(kProbeDocumentSeed);
    probe_document_ = atk::WriteDocument(*atk::GenerateDocument(probe_gen, 30));
    return true;
  }

  bool SetUp(Recorder& rec) override {
    ws_ = atk::WindowSystem::Open("x11");
    if (ws_ == nullptr) {
      rec.Problem("no x11 window system");
      return false;
    }
    model_ = text_;
    caret_ = 0;
    probe_forward_ = true;
    if (!main_.Open(*ws_, document_) || main_.ez->document()->GetAllText() != model_) {
      rec.Problem("document did not open as generated");
      return false;
    }
    if (!probe_.Open(*ws_, probe_document_)) {
      rec.Problem("probe document did not open");
      return false;
    }
    return true;
  }

  void TearDown() override {
    probe_.Close();
    main_.Close();
    ws_.reset();
  }

  void RunRound(Recorder& rec) override {
    for (int i = 0; i < 2; ++i) {
      SeededOp(PageTowardsTarget(), rec);
    }
    SeededOp(Key::kClick, rec);
    for (int i = 0; i < 2; ++i) {
      static constexpr Key kMotions[] = {Key::kForward, Key::kBackward, Key::kNextLine,
                                         Key::kPreviousLine};
      SeededOp(kMotions[rng_.Below(4)], rec);
    }
    for (int i = 0; i < kBurst; ++i) {
      uint64_t r = rng_.Below(100);
      SeededOp(r < 80 ? Key::kPrintable : r < 95 ? Key::kSpace : Key::kNewline, rec);
    }
    for (int i = 0; i < kBurst; ++i) {
      SeededOp(Key::kBackspace, rec);
    }
    ProbeOp(rec);
  }

  std::string Describe() override {
    const atk::TextData* doc = main_.ez->document();
    return "{\"document_chars\": " + std::to_string(doc->size()) +
           ", \"document_lines\": " + std::to_string(doc->LineCount()) +
           ", \"style_runs\": " + std::to_string(doc->style_runs().size()) +
           ", \"ops_per_round\": " + std::to_string(kSeededOpsPerRound + 1) + "}";
  }

 private:
  Key PageTowardsTarget() {
    atk::ScrollInfo info = main_.ez->text_view()->GetScrollInfo();
    if (std::abs(target_line_ - info.first_visible) <= info.visible) {
      target_line_ = static_cast<int64_t>(rng_.Below(static_cast<uint64_t>(info.total)));
    }
    return target_line_ > info.first_visible ? Key::kPageForward : Key::kPageBackward;
  }

  std::vector<InputEvent> EventsFor(Key key, char printable) {
    switch (key) {
      case Key::kPrintable: return {InputEvent::KeyPress(printable)};
      case Key::kSpace: return {InputEvent::KeyPress(' ')};
      case Key::kNewline: return {InputEvent::KeyPress('\n')};
      case Key::kBackspace: return {InputEvent::KeyPress('\b')};
      case Key::kForward: return {InputEvent::KeyPress(Ctl('f'))};
      case Key::kBackward: return {InputEvent::KeyPress(Ctl('b'))};
      case Key::kNextLine: return {InputEvent::KeyPress(Ctl('n'))};
      case Key::kPreviousLine: return {InputEvent::KeyPress(Ctl('p'))};
      case Key::kPageForward: return {InputEvent::KeyPress(Ctl('v'))};
      case Key::kPageBackward: return {InputEvent::KeyPress('\033'), InputEvent::KeyPress('v')};
      case Key::kClick: {
        Rect body = main_.ez->text_view()->DeviceBounds();
        atk::Point p{body.x + 8 + static_cast<int>(rng_.Below(body.width - 16)),
                     body.y + 4 + static_cast<int>(rng_.Below(body.height - 8))};
        return {InputEvent::MouseAt(atk::EventType::kMouseDown, p),
                InputEvent::MouseAt(atk::EventType::kMouseUp, p)};
      }
    }
    return {};
  }

  // The independent model of what a key does to the text and the caret.
  void ApplyToModel(Key key, char printable) {
    const int64_t size = static_cast<int64_t>(model_.size());
    auto line_start = [&](int64_t pos) {
      size_t nl = pos > 0 ? model_.rfind('\n', static_cast<size_t>(pos - 1)) : std::string::npos;
      return nl == std::string::npos ? int64_t{0} : static_cast<int64_t>(nl) + 1;
    };
    auto line_end = [&](int64_t pos) {
      size_t nl = model_.find('\n', static_cast<size_t>(pos));
      return nl == std::string::npos ? size : static_cast<int64_t>(nl);
    };
    switch (key) {
      case Key::kPrintable:
      case Key::kSpace:
      case Key::kNewline: {
        char c = key == Key::kPrintable ? printable : key == Key::kSpace ? ' ' : '\n';
        model_.insert(static_cast<size_t>(caret_), 1, c);
        ++caret_;
        break;
      }
      case Key::kBackspace:
        if (caret_ > 0) {
          model_.erase(static_cast<size_t>(caret_ - 1), 1);
          --caret_;
        }
        break;
      case Key::kForward: caret_ = std::min(caret_ + 1, size); break;
      case Key::kBackward: caret_ = std::max<int64_t>(caret_ - 1, 0); break;
      case Key::kNextLine: {
        int64_t end = line_end(caret_);
        if (end < size) {
          int64_t col = caret_ - line_start(caret_);
          caret_ = std::min(end + 1 + col, line_end(end + 1));
        }
        break;
      }
      case Key::kPreviousLine: {
        int64_t start = line_start(caret_);
        if (start > 0) {
          int64_t col = caret_ - start;
          int64_t prev = line_start(start - 1);
          caret_ = std::min(prev + col, start - 1);
        }
        break;
      }
      case Key::kPageForward:
      case Key::kPageBackward:
        break;  // Scrolling leaves the caret where it is.
      case Key::kClick:
        // Where a click lands is a layout question, not an editing one: the
        // model takes the caret the view chose.
        caret_ = main_.ez->text_view()->dot_pos();
        break;
    }
  }

  // Dispatch, one update cycle, one flush — each timed from outside.
  // Returns the op's latency in microseconds and fills `damage`.
  double TimedOp(EzWindow& w, const std::vector<InputEvent>& events, Recorder& rec,
                 std::vector<Rect>& damage) {
    uint64_t dispatch = 0;
    uint64_t update = 0;
    uint64_t flush = 0;
    {
      LayerTimer t("bench.base.dispatch", dispatch);
      for (const InputEvent& e : events) {
        w.im->ProcessEvent(e);
      }
    }
    damage = w.im->pending_damage().rects();  // Before the cycle consumes it.
    rec.count("base.damage_rects_per_op") += static_cast<double>(damage.size());
    rec.samples("graphics.region_bands_p50")
        .push_back(static_cast<double>(w.im->pending_damage().band_count()));
    static atk::observability::Counter& clip_reuse =
        atk::observability::MetricsRegistry::Instance().counter("im.update.clip_reuse");
    const uint64_t reuse_before = clip_reuse.value();
    const uint64_t lines_before = w.ez->text_view()->layout_lines_reused();
    {
      LayerTimer t("bench.base.update", update);
      w.im->RunUpdateCycle();
    }
    {
      LayerTimer t("bench.wm.flush", flush);
      w.im->window()->Flush();
    }
    rec.count("base.clip_reuse_per_op") += static_cast<double>(clip_reuse.value() - reuse_before);
    rec.count("text.lines_reused_per_op") +=
        static_cast<double>(w.ez->text_view()->layout_lines_reused() - lines_before);
    rec.ns("base.dispatch_us") += dispatch;
    rec.ns("base.update_us") += update;
    rec.ns("wm.flush_us") += flush;
    return static_cast<double>(dispatch + update + flush) / 1e3;
  }

  void SeededOp(Key key, Recorder& rec) {
    const char printable = static_cast<char>('a' + rng_.Below(26));
    std::vector<Rect> damage;
    const double us = TimedOp(main_, EventsFor(key, printable), rec, damage);
    rec.Op(us);
    ++seeded_ops_;

    if (options_.fault == Fault::kModelDropsKey && seeded_ops_ >= 40 && !dropped_ &&
        key == Key::kPrintable) {
      dropped_ = true;
    } else {
      ApplyToModel(key, printable);
    }
    if (options_.fault == Fault::kFramePixel && seeded_ops_ == 40) {
      Rect body = main_.ez->text_view()->DeviceBounds();
      main_.im->window()->GetGraphic()->FillRect(
          Rect{body.x + body.width / 2, body.y + body.height / 2, 1, 1}, atk::Color{1, 2, 3});
      main_.im->window()->Flush();
    }

    atk::TextView* view = main_.ez->text_view();
    bool ok = true;
    if (view->dot_pos() != caret_ || view->dot_len() != 0) {
      rec.Problem("caret " + std::to_string(view->dot_pos()) + " but the model says " +
                  std::to_string(caret_) + " after op " + std::to_string(seeded_ops_));
      ok = false;
    }
    if (main_.ez->document()->size() != static_cast<int64_t>(model_.size()) ||
        main_.ez->document()->GetAllText() != model_) {
      rec.Problem("text differs from the model after op " + std::to_string(seeded_ops_));
      ok = false;
    }
    if (!ok) {
      // Resynchronise so one fault is one failed op.
      model_ = main_.ez->document()->GetAllText();
      caret_ = view->dot_pos();
    }
    FrameDiff diff = CheckFrameAgainstFullRepaint(*main_.im, damage, main_.strip);
    if (diff.pixels > 0) {
      if (diff.inside_strip) {
        rec.StaleStrip(diff);
      } else {
        rec.Problem(DescribeDiff("seeded op " + std::to_string(seeded_ops_), diff));
        ok = false;
      }
    }
    if (!ok) {
      rec.Fail("seeded op " + std::to_string(seeded_ops_));
    }
  }

  void ProbeOp(Recorder& rec) {
    std::vector<InputEvent> events =
        probe_forward_ ? std::vector<InputEvent>{InputEvent::KeyPress(Ctl('v'))}
                       : std::vector<InputEvent>{InputEvent::KeyPress('\033'),
                                                 InputEvent::KeyPress('v')};
    probe_forward_ = !probe_forward_;
    std::vector<Rect> damage;
    rec.Op(TimedOp(probe_, events, rec, damage));
    FrameDiff diff = CheckFrameAgainstFullRepaint(*probe_.im, damage, probe_.strip);
    if (diff.pixels > 0 && diff.inside_strip) {
      rec.FailStaleStrip(DescribeDiff("probe page scroll", diff), diff);
    } else if (diff.pixels > 0) {
      rec.Problem(DescribeDiff("probe page scroll", diff));
      rec.Fail("probe page scroll");
    }
  }

  Options options_;
  atk::WorkloadRng rng_;
  std::string text_;            // The generated document's text,
  std::string document_;        // and the document EZ opens.
  std::string probe_document_;
  std::unique_ptr<atk::WindowSystem> ws_;
  EzWindow main_;
  EzWindow probe_;
  std::string model_;
  int64_t caret_ = 0;
  int64_t target_line_ = 0;
  bool probe_forward_ = true;
  bool dropped_ = false;  // Self-test fault: the one key the model skipped.
  uint64_t seeded_ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTypeWorkload(const Options& options, Recorder& rec) {
  auto wl = std::make_unique<TypeWorkload>(options);
  if (!wl->MakeInputs(rec)) {
    return nullptr;
  }
  return wl;
}

}  // namespace perfbench
