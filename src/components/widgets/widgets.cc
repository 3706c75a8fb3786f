#include "src/components/widgets/widgets.h"

#include <algorithm>

#include "src/base/proctable.h"
#include "src/class_system/loader.h"
#include "src/components/widgets/menu_view.h"

namespace atk {

ATK_DEFINE_CLASS(LabelView, View, "label")
ATK_DEFINE_CLASS(ButtonView, View, "button")
ATK_DEFINE_CLASS(ListView, View, "listview")

// ---- LabelView ------------------------------------------------------------

void LabelView::SetLabel(std::string text) {
  text_ = std::move(text);
  PostUpdate();
}

void LabelView::SetFont(const FontSpec& spec) {
  font_ = spec;
  PostUpdate();
}

void LabelView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  g->Clear();
  g->SetFont(font_);
  g->SetForeground(kBlack);
  g->DrawString(Point{2, (g->height() - Font::Get(font_).height()) / 2}, text_);
}

Size LabelView::DesiredSize(Size available) {
  const Font& font = Font::Get(font_);
  Size desired{font.StringWidth(text_) + 4, font.height() + 4};
  if (available.width > 0) {
    desired.width = std::min(desired.width, available.width);
  }
  return desired;
}

// ---- ButtonView ------------------------------------------------------------

void ButtonView::SetLabel(std::string label) {
  label_ = std::move(label);
  PostUpdate();
}

void ButtonView::SetProc(std::string proc_name, long rock) {
  proc_name_ = std::move(proc_name);
  rock_ = rock;
}

void ButtonView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  Rect box = g->LocalBounds();
  g->FillRect(box, pressed_ ? kDarkGray : kLightGray);
  g->SetForeground(kBlack);
  g->DrawRect(box);
  g->SetFont(FontSpec{"andy", 10, kPlain});
  g->SetForeground(pressed_ ? kWhite : kBlack);
  const Font& font = Font::Default();
  int tx = (box.width - font.StringWidth(label_)) / 2;
  int ty = (box.height - font.height()) / 2;
  g->DrawString(Point{std::max(2, tx), std::max(1, ty)}, label_);
}

Size ButtonView::DesiredSize(Size available) {
  (void)available;
  const Font& font = Font::Default();
  return Size{font.StringWidth(label_) + 12, font.height() + 8};
}

View* ButtonView::Hit(const InputEvent& event) {
  switch (event.type) {
    case EventType::kMouseDown:
      pressed_ = true;
      PostUpdate();
      return this;
    case EventType::kMouseUp: {
      bool inside = graphic() != nullptr && graphic()->LocalBounds().Contains(event.pos);
      pressed_ = false;
      PostUpdate();
      if (inside) {
        ++clicks_;
        if (action_) {
          action_();
        } else if (!proc_name_.empty()) {
          ProcTable::Instance().Invoke(proc_name_, this, rock_);
        }
      }
      return this;
    }
    case EventType::kMouseDrag:
      return this;
    default:
      return nullptr;
  }
}

// ---- ListView ---------------------------------------------------------------

ListView::ListView() { SetPreferredCursor(CursorShape::kArrow); }

void ListView::SetItems(std::vector<std::string> items) {
  items_ = std::move(items);
  selected_ = items_.empty() ? -1 : std::min<int>(selected_, static_cast<int>(items_.size()) - 1);
  first_visible_ = 0;
  PostUpdate();
}

void ListView::AddItem(std::string item) {
  items_.push_back(std::move(item));
  PostUpdate();
}

void ListView::ClearItems() {
  items_.clear();
  selected_ = -1;
  first_visible_ = 0;
  PostUpdate();
}

void ListView::Select(int index) {
  if (index < -1 || index >= static_cast<int>(items_.size())) {
    return;
  }
  if (selected_ != index) {
    selected_ = index;
    PostUpdate();
    if (on_select_ && index >= 0) {
      on_select_(index);
    }
  }
}

const std::string* ListView::SelectedItem() const {
  if (selected_ < 0 || selected_ >= static_cast<int>(items_.size())) {
    return nullptr;
  }
  return &items_[static_cast<size_t>(selected_)];
}

int ListView::RowHeight() const { return Font::Default().height() + 2; }

int ListView::RowsVisible() const {
  if (graphic() == nullptr) {
    return 1;
  }
  return std::max(1, graphic()->height() / RowHeight());
}

ScrollInfo ListView::GetScrollInfo() {
  ScrollInfo info;
  info.total = static_cast<int64_t>(items_.size());
  info.first_visible = first_visible_;
  info.visible = std::min<int64_t>(RowsVisible(), info.total - first_visible_);
  return info;
}

void ListView::ScrollToUnit(int64_t unit) {
  first_visible_ = std::clamp<int64_t>(unit, 0, std::max<int64_t>(0, items_.size() - 1));
  PostUpdate();
}

void ListView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  g->Clear();
  g->SetFont(FontSpec{"andy", 10, kPlain});
  int row_h = RowHeight();
  int rows = RowsVisible();
  for (int row = 0; row < rows; ++row) {
    int64_t index = first_visible_ + row;
    if (index >= static_cast<int64_t>(items_.size())) {
      break;
    }
    int y = row * row_h;
    if (static_cast<int>(index) == selected_) {
      g->FillRect(Rect{0, y, g->width(), row_h}, kBlack);
      g->SetForeground(kWhite);
    } else {
      g->SetForeground(kBlack);
    }
    g->DrawString(Point{3, y + 1}, items_[static_cast<size_t>(index)]);
  }
}

View* ListView::Hit(const InputEvent& event) {
  if (event.type != EventType::kMouseDown) {
    return event.type == EventType::kMouseUp || event.type == EventType::kMouseDrag ? this
                                                                                    : nullptr;
  }
  int64_t index = first_visible_ + event.pos.y / RowHeight();
  if (index >= 0 && index < static_cast<int64_t>(items_.size())) {
    Select(static_cast<int>(index));
  }
  RequestInputFocus();
  return this;
}

bool ListView::HandleKey(char key, unsigned modifiers) {
  (void)modifiers;
  if (key == 'n' || key == Ctl('n')) {
    Select(std::min(selected_ + 1, static_cast<int>(items_.size()) - 1));
    return true;
  }
  if (key == 'p' || key == Ctl('p')) {
    Select(std::max(selected_ - 1, 0));
    return true;
  }
  return false;
}

Size ListView::DesiredSize(Size available) {
  const Font& font = Font::Default();
  int max_width = 20;
  for (const std::string& item : items_) {
    max_width = std::max(max_width, font.StringWidth(item) + 6);
  }
  Size desired{max_width, static_cast<int>(items_.size()) * RowHeight()};
  if (available.width > 0) {
    desired.width = std::min(desired.width, available.width);
  }
  if (available.height > 0) {
    desired.height = std::min(desired.height, available.height);
  }
  return desired;
}

void RegisterWidgetsModule() {
  static bool done = [] {
    ModuleSpec spec;
    spec.name = "widgets";
    spec.provides = {"label", "button", "listview", "menuview"};
    spec.text_bytes = 26 * 1024;
    spec.data_bytes = 2 * 1024;
    spec.init = [] {
      ClassRegistry::Instance().Register(LabelView::StaticClassInfo());
      ClassRegistry::Instance().Register(ButtonView::StaticClassInfo());
      ClassRegistry::Instance().Register(ListView::StaticClassInfo());
      ClassRegistry::Instance().Register(MenuView::StaticClassInfo());
    };
    return Loader::Instance().DeclareModule(std::move(spec));
  }();
  (void)done;
}

}  // namespace atk
