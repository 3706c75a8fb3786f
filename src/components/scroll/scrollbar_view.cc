#include "src/components/scroll/scrollbar_view.h"

#include <algorithm>

#include "src/base/default_views.h"
#include "src/base/proctable.h"
#include "src/class_system/loader.h"

namespace atk {

ATK_DEFINE_CLASS(ScrollBarView, View, "scrollbar")

ScrollBarView::ScrollBarView() { SetPreferredCursor(CursorShape::kVerticalBars); }

void ScrollBarView::SetBody(View* body, Scrollable* scrollable) {
  if (body_ != nullptr) {
    RemoveChild(body_);
  }
  body_ = body;
  scrollable_ = scrollable != nullptr ? scrollable : dynamic_cast<Scrollable*>(body);
  if (body_ != nullptr) {
    AddChild(body_);
  }
  Layout();
}

void ScrollBarView::Layout() {
  if (graphic() == nullptr || body_ == nullptr) {
    return;
  }
  Rect b = graphic()->LocalBounds();
  body_->Allocate(Rect{kBarWidth, 0, b.width - kBarWidth, b.height}, graphic());
}

Rect ScrollBarView::ElevatorRect() const {
  if (graphic() == nullptr || scrollable_ == nullptr) {
    return Rect{};
  }
  ScrollInfo info = scrollable_->GetScrollInfo();
  int track_height = graphic()->height() - 2;
  if (info.total <= 0 || track_height <= 4) {
    return Rect{};
  }
  int64_t total = std::max<int64_t>(info.total, 1);
  int top = 1 + static_cast<int>(track_height * info.first_visible / total);
  int height = std::max(6, static_cast<int>(track_height * info.visible / total));
  height = std::min(height, track_height - (top - 1));
  return Rect{2, top, kBarWidth - 4, height};
}

void ScrollBarView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  Rect bar{0, 0, kBarWidth, g->height()};
  g->FillRect(bar, kLightGray);
  if (body_ == nullptr) {
    // No body paints the rest of the allocation.
    g->EraseRect(Rect{kBarWidth, 0, g->width() - kBarWidth, g->height()});
  }
  g->SetForeground(kDarkGray);
  g->DrawLine(Point{kBarWidth - 1, 0}, Point{kBarWidth - 1, g->height() - 1});
  Rect elevator = ElevatorRect();
  if (!elevator.IsEmpty()) {
    g->FillRect(elevator, kWhite);
    g->SetForeground(kBlack);
    g->DrawRect(elevator);
  }
  painted_elevator_ = elevator;
}

void ScrollBarView::WantUpdate(View* requestor, const Rect& device_region) {
  View::WantUpdate(requestor, device_region);
  if (requestor == body_ && graphic() != nullptr && ElevatorRect() != painted_elevator_) {
    PostUpdate(Rect{0, 0, kBarWidth, graphic()->height()});
  }
}

void ScrollBarView::ScrollToFraction(double fraction) {
  if (scrollable_ == nullptr) {
    return;
  }
  ScrollInfo info = scrollable_->GetScrollInfo();
  fraction = std::clamp(fraction, 0.0, 1.0);
  scrollable_->ScrollToUnit(static_cast<int64_t>(fraction * info.total));
  PostUpdate();  // The elevator moved.
}

View* ScrollBarView::Hit(const InputEvent& event) {
  // Events over the body go to the body (parental dispatch); events over the
  // bar strip are ours.
  if (event.pos.x >= kBarWidth && !dragging_) {
    return View::Hit(event);
  }
  if (scrollable_ == nullptr || graphic() == nullptr) {
    return nullptr;
  }
  int track_height = std::max(1, graphic()->height() - 2);
  Rect elevator = ElevatorRect();
  switch (event.type) {
    case EventType::kMouseDown:
      if (elevator.Contains(event.pos)) {
        dragging_ = true;
        drag_offset_ = event.pos.y - elevator.y;
      } else if (event.pos.y < elevator.y) {
        // Page up: click above the elevator.
        ScrollInfo info = scrollable_->GetScrollInfo();
        scrollable_->ScrollByUnits(-std::max<int64_t>(1, info.visible - 1));
        PostUpdate();
      } else {
        ScrollInfo info = scrollable_->GetScrollInfo();
        scrollable_->ScrollByUnits(std::max<int64_t>(1, info.visible - 1));
        PostUpdate();
      }
      return this;
    case EventType::kMouseDrag:
      if (dragging_) {
        ScrollToFraction(static_cast<double>(event.pos.y - drag_offset_ - 1) / track_height);
      }
      return this;
    case EventType::kMouseUp:
      dragging_ = false;
      return this;
    default:
      return nullptr;
  }
}

CursorShape ScrollBarView::CursorAt(Point local) {
  if (local.x < kBarWidth) {
    return CursorShape::kVerticalBars;
  }
  return View::CursorAt(local);
}

void RegisterScrollModule() {
  static bool done = [] {
    ModuleSpec spec;
    spec.name = "scroll";
    spec.provides = {"scrollbar"};
    spec.text_bytes = 18 * 1024;
    spec.data_bytes = 1 * 1024;
    spec.init = [] {
      ClassRegistry::Instance().Register(ScrollBarView::StaticClassInfo());
    };
    return Loader::Instance().DeclareModule(std::move(spec));
  }();
  (void)done;
}

}  // namespace atk
