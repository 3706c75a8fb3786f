#include "src/components/frame/frame_view.h"

#include <algorithm>

#include "src/class_system/loader.h"

namespace atk {

ATK_DEFINE_CLASS(MessageLineView, View, "messageline")
ATK_DEFINE_CLASS(FrameView, View, "frame")

void MessageLineView::SetMessage(std::string message) {
  message_ = std::move(message);
  PostUpdate();
}

void MessageLineView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  g->Clear();
  g->SetFont(FontSpec{"andy", 10, kPlain});
  g->SetForeground(kBlack);
  g->DrawString(Point{3, 2}, message_);
}

FrameView::FrameView() { AddChild(&message_line_); }

FrameView::~FrameView() {
  RemoveChild(&message_line_);  // Member child must not be unlinked by ~View.
}

void FrameView::SetBody(View* body) {
  if (body_ != nullptr) {
    RemoveChild(body_);
  }
  body_ = body;
  if (body_ != nullptr) {
    AddChild(body_);
  }
  Layout();
}

void FrameView::SetMessage(const std::string& message) { message_line_.SetMessage(message); }

void FrameView::AddAppMenu(const std::string& spec, const std::string& proc_name, long rock) {
  app_menus_.Add(spec, proc_name, rock);
}

void FrameView::SetDivider(int y) {
  int height = graphic() != nullptr ? graphic()->height() : 0;
  divider_ = std::clamp(y, 10, std::max(10, height - 10));
  Layout();
  PostUpdate();
}

std::string FrameView::AskUser(const std::string& prompt, const std::string& fallback) {
  last_prompt_ = prompt;
  SetMessage(prompt);
  if (!dialog_answers_.empty()) {
    std::string answer = std::move(dialog_answers_.front());
    dialog_answers_.pop_front();
    SetMessage("");
    return answer;
  }
  return fallback;
}

void FrameView::PushDialogAnswer(std::string answer) {
  dialog_answers_.push_back(std::move(answer));
}

void FrameView::Layout() {
  if (graphic() == nullptr) {
    return;
  }
  Rect b = graphic()->LocalBounds();
  message_line_.Allocate(Rect{0, 0, b.width, divider_}, graphic());
  if (body_ != nullptr) {
    body_->Allocate(Rect{0, divider_ + 1, b.width, b.height - divider_ - 1}, graphic());
  }
}

void FrameView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  // The message line and the body paint their own allocations: the frame
  // owns the divider row, and the body area only while it has no body.
  if (body_ == nullptr) {
    g->EraseRect(Rect{0, divider_ + 1, g->width(), g->height() - divider_ - 1});
  }
  g->SetForeground(kBlack);
  g->DrawLine(Point{0, divider_}, Point{g->width() - 1, divider_});
}

View* FrameView::Hit(const InputEvent& event) {
  // The grab zone overlaps the children's allocations: the frame claims
  // events near the dividing line *before* consulting its children (§3).
  switch (event.type) {
    case EventType::kMouseDown:
      if (InGrabZone(event.pos.y)) {
        dragging_divider_ = true;
        return this;
      }
      break;
    case EventType::kMouseDrag:
      if (dragging_divider_) {
        SetDivider(event.pos.y);
        return this;
      }
      break;
    case EventType::kMouseUp:
      if (dragging_divider_) {
        dragging_divider_ = false;
        SetDivider(event.pos.y);
        return this;
      }
      break;
    default:
      break;
  }
  return View::Hit(event);
}

CursorShape FrameView::CursorAt(Point local) {
  if (InGrabZone(local.y)) {
    return CursorShape::kHorizontalBars;
  }
  return View::CursorAt(local);
}

void RegisterFrameModule() {
  static bool done = [] {
    ModuleSpec spec;
    spec.name = "frame";
    spec.provides = {"frame", "messageline"};
    spec.text_bytes = 22 * 1024;
    spec.data_bytes = 2 * 1024;
    spec.init = [] {
      ClassRegistry::Instance().Register(FrameView::StaticClassInfo());
      ClassRegistry::Instance().Register(MessageLineView::StaticClassInfo());
    };
    return Loader::Instance().DeclareModule(std::move(spec));
  }();
  (void)done;
}

}  // namespace atk
