// Differential repaint harness: on the PixelImage ("itc") backend, the
// incremental damage-driven repaint must be byte-identical to a forced
// full-window repaint after every step of a workload.  This pins down the
// banded region algebra, the per-view clip memoization, and the text
// layout cache: any of them shaving too much off the repaint shows up as a
// display hash divergence at the exact step it happens.
//
// Every workload runs twice — with the caches enabled and disabled — so the
// cached and uncached pipelines are both held to the same oracle.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/standard_modules.h"
#include "src/base/interaction_manager.h"
#include "src/base/keymap.h"
#include "src/class_system/loader.h"
#include "src/components/frame/frame_view.h"
#include "src/components/scroll/scrollbar_view.h"
#include "src/components/table/chart.h"
#include "src/components/table/table_data.h"
#include "src/components/text/text_view.h"
#include "src/wm/window_system.h"

namespace atk {
namespace {

class RepaintDifferentialTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    RegisterStandardModules();
    Loader::Instance().Require("text");
    Loader::Instance().Require("table");
    caches_ = GetParam();
    TextView::SetLayoutCacheEnabled(caches_);
  }

  void TearDown() override {
    TextView::SetLayoutCacheEnabled(true);  // Process-wide; restore default.
  }

  // Runs the pending incremental repaint, then forces a full-window repaint,
  // and requires the two displays to be byte-identical.
  void CheckStep(InteractionManager& im, const char* workload, int step) {
    im.RunOnce();
    uint64_t incremental = im.window()->Display().Hash();
    im.PostUpdate();  // Full-window damage: everything redraws from scratch.
    im.RunOnce();
    uint64_t full = im.window()->Display().Hash();
    ASSERT_EQ(incremental, full)
        << workload << " diverged at step " << step << " (caches "
        << (caches_ ? "on" : "off") << ")";
  }

  bool caches_ = true;
};

// A minimal host giving every child an equal horizontal slot.
class RowHost : public View {
 public:
  void Layout() override {
    if (graphic() == nullptr || children().empty()) {
      return;
    }
    Rect b = graphic()->LocalBounds();
    int w = std::max(1, b.width / static_cast<int>(children().size()));
    for (size_t i = 0; i < children().size(); ++i) {
      children()[i]->Allocate(Rect{static_cast<int>(i) * w, 0, w, b.height}, graphic());
    }
  }
};

TEST_P(RepaintDifferentialTest, EmbeddingWorkload) {
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 360, 240, "embed");
  im->SetClipMemoEnabled(caches_);
  TextData letter;
  letter.SetText("Dear reader,\n\nEnclosed are the figures ");
  TextView view;
  view.SetText(&letter);
  im->SetChild(&view);
  im->SetInputFocus(&view);
  CheckStep(*im, "embedding", 0);

  // Embed a live table mid-text, then keep editing around it.
  auto table = std::make_unique<TableData>();
  table->Resize(2, 2);
  table->SetText(0, 0, "q1");
  table->SetNumber(0, 1, 17);
  view.SetDot(letter.size());
  TableData* table_raw =
      static_cast<TableData*>(view.InsertObjectAtDot(std::move(table), "spread"));
  ASSERT_NE(table_raw, nullptr);
  CheckStep(*im, "embedding", 1);

  view.InsertText("\nwith kind regards.\n");
  CheckStep(*im, "embedding", 2);

  // Edits before the embedded object: the cached line prefix ends here.
  view.SetDot(5);
  view.InsertText("gentle ");
  CheckStep(*im, "embedding", 3);

  // Mutate the embedded object; only its lines should need re-measuring.
  table_raw->SetNumber(1, 1, 99);
  CheckStep(*im, "embedding", 4);

  view.StyleSelection("bold");
  view.SetDot(0, 4);
  view.StyleSelection("bold");
  CheckStep(*im, "embedding", 5);

  view.SetDot(letter.size());
  for (int i = 0; i < 6; ++i) {
    view.InsertText("another closing line of text\n");
    CheckStep(*im, "embedding", 6 + i);
  }

  if (caches_) {
    // The tail-append edits above must actually exercise the prefix reuse.
    EXPECT_GT(view.layout_lines_reused(), 0u);
  }
  view.SetText(nullptr);
}

TEST_P(RepaintDifferentialTest, TableToChartWorkload) {
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 400, 200, "charts");
  im->SetClipMemoEnabled(caches_);
  TableData table;
  table.Resize(5, 2);
  for (int r = 0; r < 5; ++r) {
    table.SetText(r, 0, "row" + std::to_string(r));
    table.SetNumber(r, 1, 10 + r * 7);
  }
  ChartData chart;
  chart.SetSource(&table);
  chart.SetTitle("diff");
  RowHost host;
  PieChartView pie;
  BarChartView bar;
  pie.SetDataObject(&chart);
  bar.SetDataObject(&chart);
  host.AddChild(&pie);
  host.AddChild(&bar);
  im->SetChild(&host);
  CheckStep(*im, "table-chart", 0);

  for (int step = 1; step <= 8; ++step) {
    table.SetNumber(step % 5, 1, step * 13 + 1);
    CheckStep(*im, "table-chart", step);
  }
  table.SetText(2, 0, "renamed");
  CheckStep(*im, "table-chart", 9);

  pie.SetDataObject(nullptr);
  bar.SetDataObject(nullptr);
}

TEST_P(RepaintDifferentialTest, ScrollWorkload) {
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 300, 160, "scroll");
  im->SetClipMemoEnabled(caches_);
  TextData doc;
  std::string body;
  for (int i = 0; i < 60; ++i) {
    body += "line " + std::to_string(i) + " with some scrolling ballast\n";
  }
  doc.SetText(body);
  TextView view;
  view.SetText(&doc);
  // EZ's tree: frame -> scroll bar -> text view.  Every step also holds the
  // bar's elevator to the body's scroll state, whoever moved it.
  ScrollBarView bar;
  bar.SetBody(&view);
  FrameView frame;
  frame.SetBody(&bar);
  im->SetChild(&frame);
  im->SetInputFocus(&view);
  CheckStep(*im, "scroll", 0);

  int step = 1;
  for (int64_t unit : {5, 6, 7, 20, 0, 45, 44, 12}) {
    view.ScrollToUnit(unit);
    CheckStep(*im, "scroll", step++);
  }

  // Edit mid-document while scrolled: damage-driven repaint of a partial view.
  view.SetDot(doc.LineEnd(doc.PosOfLine(13)));
  view.InsertText(" tail");
  CheckStep(*im, "scroll", step++);

  // Page scrolls by key (^V twice, ESC-v): the text view scrolls itself,
  // not through the bar.
  const std::string page_forward{Ctl('v')};
  for (const std::string& keys : {page_forward, page_forward, std::string("\033v")}) {
    for (char key : keys) {
      im->window()->Inject(InputEvent::KeyPress(key));
    }
    CheckStep(*im, "scroll", step++);
  }

  // A replaced document with a different line count, under the same view.
  TextData replacement;
  replacement.SetText(body.substr(0, body.size() / 3));
  view.SetText(&replacement);
  CheckStep(*im, "scroll", step++);

  view.SetText(nullptr);
}

INSTANTIATE_TEST_SUITE_P(CachesOnOff, RepaintDifferentialTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "CachesOn" : "CachesOff";
                         });

}  // namespace
}  // namespace atk
