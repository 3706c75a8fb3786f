#include "src/components/table/table_view.h"

#include <algorithm>

#include "src/class_system/loader.h"
#include "src/components/frame/unknown_view.h"

namespace atk {

ATK_DEFINE_CLASS(TableView, View, "tableview")
ATK_DEFINE_CLASS(SpreadView, TableView, "spread")

TableView::TableView() { SetPreferredCursor(CursorShape::kCrosshair); }

TableView::~TableView() = default;

TableData* TableView::table() const { return ObjectCast<TableData>(data_object()); }

int TableView::RowHeight() const { return Font::Default().height() + 6; }

void TableView::SelectCell(int row, int col) {
  TableData* data = table();
  if (data == nullptr) {
    return;
  }
  if (editing_) {
    CommitEdit();
  }
  sel_row_ = std::clamp(row, 0, data->rows() - 1);
  sel_col_ = std::clamp(col, 0, data->cols() - 1);
  PostUpdate();
}

void TableView::BeginEdit() {
  editing_ = true;
  edit_buffer_.clear();
  PostUpdate();
}

void TableView::CommitEdit() {
  if (!editing_) {
    return;
  }
  editing_ = false;
  TableData* data = table();
  if (data != nullptr) {
    data->SetFromInput(sel_row_, sel_col_, edit_buffer_);
  }
  edit_buffer_.clear();
}

void TableView::CancelEdit() {
  editing_ = false;
  edit_buffer_.clear();
  PostUpdate();
}

ScrollInfo TableView::GetScrollInfo() {
  ScrollInfo info;
  TableData* data = table();
  if (data == nullptr) {
    return info;
  }
  info.total = data->rows();
  info.first_visible = first_row_;
  int height = graphic() != nullptr ? graphic()->height() : 100;
  info.visible = std::min<int64_t>(std::max(1, height / RowHeight()),
                                   info.total - info.first_visible);
  return info;
}

void TableView::ScrollToUnit(int64_t unit) {
  TableData* data = table();
  if (data == nullptr) {
    return;
  }
  first_row_ = std::clamp<int64_t>(unit, 0, std::max(0, data->rows() - 1));
  Layout();
  PostUpdate();
}

Rect TableView::CellRect(int row, int col) const {
  TableData* data = table();
  if (data == nullptr || row < first_row_) {
    return Rect{};
  }
  int x = 0;
  for (int c = 0; c < col; ++c) {
    x += data->ColWidth(c);
  }
  int y = static_cast<int>(row - first_row_) * RowHeight();
  return Rect{x, y, data->ColWidth(col), RowHeight()};
}

bool TableView::CellAtPoint(Point p, int* row, int* col) const {
  TableData* data = table();
  if (data == nullptr || p.x < 0 || p.y < 0) {
    return false;
  }
  int r = static_cast<int>(first_row_) + p.y / RowHeight();
  if (r >= data->rows()) {
    return false;
  }
  int x = 0;
  for (int c = 0; c < data->cols(); ++c) {
    x += data->ColWidth(c);
    if (p.x < x) {
      *row = r;
      *col = c;
      return true;
    }
  }
  return false;
}

void TableView::EnsureChildren() {
  TableData* data = table();
  if (data == nullptr) {
    return;
  }
  // Drop views for objects no longer in the table.
  for (auto it = child_views_.begin(); it != child_views_.end();) {
    bool alive = false;
    for (int r = 0; r < data->rows() && !alive; ++r) {
      for (int c = 0; c < data->cols() && !alive; ++c) {
        alive = data->at(r, c).object.get() == it->first;
      }
    }
    if (!alive) {
      RemoveChild(it->second.get());
      it = child_views_.erase(it);
    } else {
      ++it;
    }
  }
}

void TableView::Layout() {
  TableData* data = table();
  if (data == nullptr || graphic() == nullptr) {
    return;
  }
  EnsureChildren();
  for (int r = 0; r < data->rows(); ++r) {
    for (int c = 0; c < data->cols(); ++c) {
      const TableData::Cell& cell = data->at(r, c);
      if (cell.kind != TableData::CellKind::kObject || cell.object == nullptr) {
        continue;
      }
      View* child = nullptr;
      auto it = child_views_.find(cell.object.get());
      if (it != child_views_.end()) {
        child = it->second.get();
      } else {
        std::unique_ptr<View> view =
            ObjectCast<View>(Loader::Instance().NewObject(cell.view_type));
        if (view == nullptr) {
          // Missing view class: degrade to a placeholder, keep the cell's
          // data object intact.
          auto placeholder = std::make_unique<UnknownView>();
          if (cell.view_type != "unknownview") {
            placeholder->SetMissingType(cell.view_type);
          }
          view = std::move(placeholder);
        }
        view->SetDataObject(cell.object.get());
        child = view.get();
        AddChild(child);
        child_views_[cell.object.get()] = std::move(view);
      }
      Rect rect = CellRect(r, c).Inset(1);
      if (rect.IsEmpty() || r < first_row_) {
        rect = Rect{0, 0, 0, 0};
      }
      child->Allocate(rect, graphic());
    }
  }
}

void TableView::FullUpdate() {
  Graphic* g = graphic();
  TableData* data = table();
  if (g == nullptr) {
    return;
  }
  g->Clear();
  if (data == nullptr) {
    return;
  }
  int row_h = RowHeight();
  int total_width = 0;
  for (int c = 0; c < data->cols(); ++c) {
    total_width += data->ColWidth(c);
  }
  int visible_rows = std::min<int>(data->rows() - static_cast<int>(first_row_),
                                   g->height() / row_h + 1);
  int grid_height = visible_rows * row_h;
  // Grid lines.
  g->SetForeground(kGray);
  int x = 0;
  for (int c = 0; c <= data->cols(); ++c) {
    g->DrawLine(Point{x, 0}, Point{x, grid_height});
    if (c < data->cols()) {
      x += data->ColWidth(c);
    }
  }
  for (int r = 0; r <= visible_rows; ++r) {
    g->DrawLine(Point{0, r * row_h}, Point{total_width, r * row_h});
  }
  // Cell contents.
  g->SetFont(FontSpec{"andy", 10, kPlain});
  const Font& font = Font::Default();
  for (int r = 0; r < visible_rows; ++r) {
    int row = static_cast<int>(first_row_) + r;
    for (int c = 0; c < data->cols(); ++c) {
      Rect rect = CellRect(row, c);
      const TableData::Cell& cell = data->at(row, c);
      if (cell.kind == TableData::CellKind::kObject) {
        continue;  // Child view draws itself.
      }
      std::string display = data->DisplayText(row, c);
      if (editing_ && row == sel_row_ && c == sel_col_) {
        display = edit_buffer_ + "_";
      }
      bool numeric = cell.kind == TableData::CellKind::kNumber ||
                     cell.kind == TableData::CellKind::kFormula;
      int text_w = font.StringWidth(display);
      int tx = numeric ? rect.right() - text_w - 3 : rect.x + 3;
      g->SetForeground(cell.error ? kDarkGray : kBlack);
      g->DrawString(Point{std::max(rect.x + 1, tx), rect.y + 3}, display);
    }
  }
  // Selection box.
  Rect sel = CellRect(sel_row_, sel_col_);
  if (!sel.IsEmpty() && sel_row_ >= first_row_) {
    g->SetForeground(kBlack);
    g->SetLineWidth(2);
    g->DrawRect(sel);
    g->SetLineWidth(1);
  }
}

Size TableView::DesiredSize(Size available) {
  TableData* data = table();
  if (data == nullptr) {
    return Size{80, 40};
  }
  int width = 1;
  for (int c = 0; c < data->cols(); ++c) {
    width += data->ColWidth(c);
  }
  Size desired{width, data->rows() * RowHeight() + 1};
  if (available.width > 0) {
    desired.width = std::min(desired.width, available.width);
  }
  if (available.height > 0) {
    desired.height = std::min(desired.height, available.height);
  }
  return desired;
}

View* TableView::Hit(const InputEvent& event) {
  // Embedded children first (parental authority).
  if (View* taken = View::Hit(event)) {
    return taken;
  }
  if (event.type != EventType::kMouseDown) {
    return event.type == EventType::kMouseUp ? this : nullptr;
  }
  int row = 0;
  int col = 0;
  if (CellAtPoint(event.pos, &row, &col)) {
    SelectCell(row, col);
    RequestInputFocus();
    return this;
  }
  return nullptr;
}

bool TableView::HandleKey(char key, unsigned modifiers) {
  (void)modifiers;
  TableData* data = table();
  if (data == nullptr) {
    return false;
  }
  if (key == '\r' || key == '\n') {
    if (editing_) {
      CommitEdit();
      SelectCell(sel_row_ + 1, sel_col_);
    } else {
      BeginEdit();
    }
    PostUpdate();
    return true;
  }
  if (key == '\t') {
    CommitEdit();
    SelectCell(sel_row_, sel_col_ + 1 < data->cols() ? sel_col_ + 1 : 0);
    return true;
  }
  if (key == '\033') {
    CancelEdit();
    return true;
  }
  if (key == '\b' || key == '\177') {
    if (editing_ && !edit_buffer_.empty()) {
      edit_buffer_.pop_back();
    } else if (!editing_) {
      data->ClearCell(sel_row_, sel_col_);
    }
    PostUpdate();
    return true;
  }
  if (key >= 0x20 && key < 0x7F) {
    if (!editing_) {
      BeginEdit();
    }
    edit_buffer_ += key;
    PostUpdate();
    return true;
  }
  return false;
}

void TableView::FillMenus(MenuList& menus) {
  menus.Add("Table~Insert Row", "tableview-insert-row");
  menus.Add("Table~Delete Row", "tableview-delete-row");
  menus.Add("Table~Insert Column", "tableview-insert-col");
  menus.Add("Table~Delete Column", "tableview-delete-col");
  menus.Add("Table~Recalculate", "tableview-recalculate");
}

void TableView::ObservedChanged(Observable* changed, const Change& change) {
  if (change.kind == Change::Kind::kDestroyed) {
    View::ObservedChanged(changed, change);
    return;
  }
  // Shape changes may move embedded children.
  if (change.kind == Change::Kind::kModified && HasGraphic()) {
    Layout();
  }
  PostUpdate();
}

}  // namespace atk
