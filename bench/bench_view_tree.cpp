// F1 — the §3 view-tree figure: event routing under parental authority.
//
// Regenerates the paper's central architectural artifact as measurements:
//   * routing a mouse event through the exact F1 tree (IM -> frame ->
//     scroll bar -> text -> table);
//   * dispatch cost as the tree deepens / widens, comparing the toolkit's
//     parental-authority walk against the global/physical pick that the
//     Andrew Base Editor used (the paper's baseline);
//   * one keystroke -> update -> flush through the F1 tree;
//   * one full update cycle through the F1 tree.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include "src/apps/standard_modules.h"
#include "src/base/interaction_manager.h"
#include "src/class_system/loader.h"
#include "src/components/frame/frame_view.h"
#include "src/components/scroll/scrollbar_view.h"
#include "src/components/table/table_view.h"
#include "src/components/text/text_view.h"
#include "src/wm/window_system.h"

namespace atk {
namespace {

void Setup() {
  static bool done = [] {
    RegisterStandardModules();
    Loader::Instance().Require("text");
    Loader::Instance().Require("table");
    Loader::Instance().Require("scroll");
    Loader::Instance().Require("frame");
    return true;
  }();
  (void)done;
}

// The figure's tree: frame { message line, scroll bar { text [ table ] } }.
struct Figure1 {
  TextData letter;
  FrameView frame;
  ScrollBarView scrollbar;
  TextView text_view;
  std::unique_ptr<WindowSystem> ws;
  std::unique_ptr<InteractionManager> im;

  Figure1() {
    Setup();
    letter.InsertString(0, "February 11, 1988\n\nDear David,\n");
    letter.InsertString(letter.size(), "Enclosed is a list of our expenses ");
    auto table = std::make_unique<TableData>();
    table->Resize(3, 2);
    table->SetText(0, 0, "David");
    table->SetNumber(1, 1, 120);
    letter.InsertObject(letter.size(), std::move(table), "spread");
    letter.InsertString(letter.size(), "\nHope you have a nice...\n");
    text_view.SetText(&letter);
    scrollbar.SetBody(&text_view);
    frame.SetBody(&scrollbar);
    ws = WindowSystem::Open("itc");
    im = InteractionManager::Create(*ws, 420, 260, "figure 1");
    im->SetChild(&frame);
    im->RunOnce();
  }
};

void BM_Figure1_MouseEventThroughTree(benchmark::State& state) {
  Figure1 fig;
  // A point inside the embedded table: the deepest possible route.
  Point target = fig.text_view.children()[0]->DeviceBounds().center();
  for (auto _ : state) {
    fig.im->ProcessEvent(InputEvent::MouseAt(EventType::kMouseDown, target));
    fig.im->ProcessEvent(InputEvent::MouseAt(EventType::kMouseUp, target));
  }
  state.SetItemsProcessed(state.iterations() * 2);
  state.counters["tree_depth"] = 4;
}

// Keystroke -> pixel on a fixed-size document: each iteration types a key
// and takes it out again with a backspace, each through its own RunOnce
// (dispatch, update cycle, window flush).  The document ends where it began
// (doc_chars_delta reads 0), so the time per key does not drift with the
// iteration count.
void BM_Figure1_KeystrokeToFocusView(benchmark::State& state) {
  Figure1 fig;
  fig.im->SetInputFocus(&fig.text_view);
  const int64_t start_chars = fig.letter.size();
  for (auto _ : state) {
    fig.im->window()->Inject(InputEvent::KeyPress('x'));
    fig.im->RunOnce();
    fig.im->window()->Inject(InputEvent::KeyPress('\b'));
    fig.im->RunOnce();
  }
  state.SetItemsProcessed(state.iterations() * 2);
  state.counters["doc_chars"] = static_cast<double>(start_chars);
  state.counters["doc_chars_delta"] = static_cast<double>(fig.letter.size() - start_chars);
}

void BM_Figure1_FullUpdateCycle(benchmark::State& state) {
  Figure1 fig;
  for (auto _ : state) {
    fig.frame.PostUpdate();
    fig.im->RunOnce();
  }
  state.SetItemsProcessed(state.iterations());
}

// ---- Depth/fanout sweep: parental vs global-physical dispatch ------------------

// A nest of pass-through containers ending in a leaf that accepts clicks.
class NestView : public View {
 public:
  void Layout() override {
    if (graphic() == nullptr || children().empty()) {
      return;
    }
    Rect b = graphic()->LocalBounds();
    children()[0]->Allocate(b.Inset(1), graphic());
  }
};

class LeafView : public View {
 public:
  View* Hit(const InputEvent&) override { return this; }
};

struct DeepTree {
  std::vector<std::unique_ptr<View>> containers;
  LeafView leaf;
  std::unique_ptr<WindowSystem> ws;
  std::unique_ptr<InteractionManager> im;

  explicit DeepTree(int depth) {
    Setup();
    ws = WindowSystem::Open("itc");
    im = InteractionManager::Create(*ws, 400, 300, "deep");
    View* parent = nullptr;
    for (int i = 0; i < depth; ++i) {
      containers.push_back(std::make_unique<NestView>());
      if (parent != nullptr) {
        parent->AddChild(containers.back().get());
      }
      parent = containers.back().get();
    }
    parent->AddChild(&leaf);
    im->SetChild(containers.front().get());
    im->RunOnce();
  }
};

void BM_Dispatch_ParentalByDepth(benchmark::State& state) {
  DeepTree tree(static_cast<int>(state.range(0)));
  Point center{200, 150};
  for (auto _ : state) {
    tree.im->ProcessEvent(InputEvent::MouseAt(EventType::kMouseDown, center));
    tree.im->ProcessEvent(InputEvent::MouseAt(EventType::kMouseUp, center));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_Dispatch_ParentalByDepth)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_Dispatch_GlobalPhysicalByDepth(benchmark::State& state) {
  DeepTree tree(static_cast<int>(state.range(0)));
  tree.im->SetDispatchMode(InteractionManager::DispatchMode::kGlobalPhysical);
  Point center{200, 150};
  for (auto _ : state) {
    tree.im->ProcessEvent(InputEvent::MouseAt(EventType::kMouseDown, center));
    tree.im->ProcessEvent(InputEvent::MouseAt(EventType::kMouseUp, center));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_Dispatch_GlobalPhysicalByDepth)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// Fanout: one container with N leaf children side by side; hit the last one.
struct WideTree {
  std::vector<std::unique_ptr<LeafView>> leaves;
  std::unique_ptr<View> row;
  std::unique_ptr<WindowSystem> ws;
  std::unique_ptr<InteractionManager> im;

  explicit WideTree(int fanout) {
    Setup();
    class RowView : public View {
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
    ws = WindowSystem::Open("itc");
    im = InteractionManager::Create(*ws, 1024, 100, "wide");
    row = std::make_unique<RowView>();
    for (int i = 0; i < fanout; ++i) {
      leaves.push_back(std::make_unique<LeafView>());
      row->AddChild(leaves.back().get());
    }
    im->SetChild(row.get());
    im->RunOnce();
  }
};

void BM_Dispatch_ParentalByFanout(benchmark::State& state) {
  WideTree tree(static_cast<int>(state.range(0)));
  Point last{1020, 50};
  for (auto _ : state) {
    tree.im->ProcessEvent(InputEvent::MouseAt(EventType::kMouseDown, last));
    tree.im->ProcessEvent(InputEvent::MouseAt(EventType::kMouseUp, last));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_Dispatch_ParentalByFanout)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_Dispatch_GlobalPhysicalByFanout(benchmark::State& state) {
  WideTree tree(static_cast<int>(state.range(0)));
  tree.im->SetDispatchMode(InteractionManager::DispatchMode::kGlobalPhysical);
  Point last{1020, 50};
  for (auto _ : state) {
    tree.im->ProcessEvent(InputEvent::MouseAt(EventType::kMouseDown, last));
    tree.im->ProcessEvent(InputEvent::MouseAt(EventType::kMouseUp, last));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_Dispatch_GlobalPhysicalByFanout)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// Thousand-rect damage storm through the F1 tree: a storm of scattered
// PostUpdates coalesces into one banded damage region, then one update pass
// walks the tree against it (the clip-memo path for the unchanged views).
void BM_Figure1_DamageStorm(benchmark::State& state) {
  Figure1 fig;
  int posts = static_cast<int>(state.range(0));
  uint64_t seed = 0x9e3779b9;
  auto next = [&seed]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  for (auto _ : state) {
    for (int i = 0; i < posts; ++i) {
      int x = static_cast<int>(next() % 400);
      int y = static_cast<int>(next() % 240);
      fig.text_view.PostUpdate(Rect{x, y, 12, 10});
    }
    fig.im->RunOnce();
  }
  state.SetItemsProcessed(state.iterations() * posts);
  state.counters["posts_per_cycle"] = posts;
}
BENCHMARK(BM_Figure1_DamageStorm)->Arg(1000);

BENCHMARK(BM_Figure1_MouseEventThroughTree);
BENCHMARK(BM_Figure1_KeystrokeToFocusView);
BENCHMARK(BM_Figure1_FullUpdateCycle);

}  // namespace
}  // namespace atk

ATK_BENCH_MAIN("bench_view_tree");
