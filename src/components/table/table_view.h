// TableView ("spread") — the grid view on TableData.
//
// Draws the grid with per-column widths, hosts embedded child views inside
// cells, lets the user select a cell with the mouse and type new contents
// (committed with Return/Tab: "=..." formula, numeric, or text — the
// spreadsheet facility of snapshot 5), and exposes Scrollable over rows.

#ifndef ATK_SRC_COMPONENTS_TABLE_TABLE_VIEW_H_
#define ATK_SRC_COMPONENTS_TABLE_TABLE_VIEW_H_

#include <map>
#include <memory>
#include <string>

#include "src/base/scrollable.h"
#include "src/base/view.h"
#include "src/components/table/table_data.h"

namespace atk {

class TableView : public View, public Scrollable {
  ATK_DECLARE_CLASS(TableView)

 public:
  TableView();
  ~TableView() override;

  TableData* table() const;

  // ---- Selection & editing ----
  int selected_row() const { return sel_row_; }
  int selected_col() const { return sel_col_; }
  void SelectCell(int row, int col);
  // The in-progress edit buffer ("" when not editing).
  const std::string& edit_buffer() const { return edit_buffer_; }
  bool editing() const { return editing_; }
  void BeginEdit();
  void CommitEdit();
  void CancelEdit();

  // ---- Scrollable (rows) ----
  ScrollInfo GetScrollInfo() override;
  void ScrollToUnit(int64_t unit) override;

  // ---- View protocol ----
  void Layout() override;
  void FullUpdate() override;
  Size DesiredSize(Size available) override;
  View* Hit(const InputEvent& event) override;
  bool HandleKey(char key, unsigned modifiers) override;
  void FillMenus(MenuList& menus) override;
  void ObservedChanged(Observable* changed, const Change& change) override;

  // Cell geometry in local coordinates ({} when scrolled out).
  Rect CellRect(int row, int col) const;
  // Cell under a local point; false when outside the grid.
  bool CellAtPoint(Point p, int* row, int* col) const;

  int RowHeight() const;

 private:
  void EnsureChildren();

  int sel_row_ = 0;
  int sel_col_ = 0;
  int64_t first_row_ = 0;
  bool editing_ = false;
  std::string edit_buffer_;
  std::map<const DataObject*, std::unique_ptr<View>> child_views_;
};

// The paper's name for the table view class (§5's \view{spread,2}).
class SpreadView : public TableView {
  ATK_DECLARE_CLASS(SpreadView)
};

}  // namespace atk

#endif  // ATK_SRC_COMPONENTS_TABLE_TABLE_VIEW_H_
