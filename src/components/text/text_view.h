// TextView — the display-based ("semi-WYSIWYG / WYSLRN") text view of §2.
//
// Renders a TextData with multiple fonts, indentation and justification;
// handles the caret, selection, keyboard editing and mouse hits; embeds a
// child view for every anchored data object, sized through DesiredSize and
// consulted first during event dispatch (parental authority); and exposes
// the Scrollable interface so a scroll bar can adorn it.  Transient state
// only — nothing here is ever written to a file.

#ifndef ATK_SRC_COMPONENTS_TEXT_TEXT_VIEW_H_
#define ATK_SRC_COMPONENTS_TEXT_TEXT_VIEW_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/scrollable.h"
#include "src/base/view.h"
#include "src/components/text/text_data.h"

namespace atk {

class TextView : public View, public Scrollable {
  ATK_DECLARE_CLASS(TextView)

 public:
  TextView();
  ~TextView() override;

  // The data object as TextData (nullptr when none attached).
  TextData* text() const;
  // Attach convenience (SetDataObject + reset caret/scroll).
  void SetText(TextData* data);

  // ---- Caret & selection ("the dot") ----
  int64_t dot_pos() const { return dot_pos_; }
  int64_t dot_len() const { return dot_len_; }
  void SetDot(int64_t pos, int64_t len = 0);
  bool HasSelection() const { return dot_len_ > 0; }
  std::string SelectedText() const;

  // ---- Editing operations (bound to keys/menus through the proc table) ----
  void SelfInsert(char ch);
  void InsertText(std::string_view s);
  void DeleteBackward();
  void DeleteForward();
  void MoveForward();
  void MoveBackward();
  void MoveUp();
  void MoveDown();
  void MoveLineStart();
  void MoveLineEnd();
  void KillLine();   // Delete to end of line into the kill buffer.
  void Yank();       // Re-insert the kill buffer.
  void CopyRegion();
  void CutRegion();
  void Paste();
  // Applies a named style to the selection.
  void StyleSelection(const std::string& style_name);
  // Embeds `data` at the caret with its default (or given) view class.
  DataObject* InsertObjectAtDot(std::unique_ptr<DataObject> data,
                                std::string_view view_type = "");

  // ---- Scrollable ----
  ScrollInfo GetScrollInfo() override;
  void ScrollToUnit(int64_t unit) override;

  // ---- View protocol ----
  void Layout() override;
  void FullUpdate() override;
  Size DesiredSize(Size available) override;
  View* Hit(const InputEvent& event) override;
  bool HandleKey(char key, unsigned modifiers) override;
  void FillMenus(MenuList& menus) override;
  const KeyMap* GetKeyMap() const override;
  void ObservedChanged(Observable* changed, const Change& change) override;

  // ---- Geometry queries ----
  // Character position at a view-local point (clamps into the text).
  int64_t PosAtPoint(Point p);
  // Top-left of the character cell at `pos`; {-1,-1} when not laid out /
  // scrolled out of view.
  Point PointAtPos(int64_t pos);
  // Number of visual lines currently laid out.
  int visible_line_count() const { return static_cast<int>(lines_.size()); }
  // First character position displayed.
  int64_t top_pos() const { return top_pos_; }

  // The process-wide kill buffer / clipboard (text only).
  static std::string& KillBuffer();

  // The default keymap shared by all text views (emacs-flavoured).
  static const KeyMap& DefaultKeyMap();

  // Layout statistics for the benches.
  uint64_t layout_count() const { return layout_count_; }
  // Visual lines reused (not re-measured) across all layouts so far.
  uint64_t layout_lines_reused() const { return layout_lines_reused_; }

  // Damage-aware layout cache: an edit at position p re-measures only lines
  // from one line above p; lines wholly before it are reused verbatim
  // (counted as text.layout.cache_hit).  On by default; the differential
  // repaint test runs both ways.  Process-wide, like the kill buffer.
  static void SetLayoutCacheEnabled(bool enabled);
  static bool layout_cache_enabled();

 protected:
  // One styled run (or one embedded child) on a visual line.
  struct Segment {
    int64_t start = 0;
    int64_t end = 0;  // Exclusive; start==end for child segments.
    int x = 0;
    int width = 0;
    const Style* style = nullptr;
    // The font of the style governing `start`, chosen at layout; painting,
    // hit-testing and the caret use it without looking the font up again.
    const Font* font = nullptr;
    View* child = nullptr;  // Non-null for embedded-object segments.
  };
  struct LineBox {
    int64_t start = 0;
    int64_t end = 0;  // Exclusive of the '\n'.
    int y = 0;
    int height = 0;
    int baseline = 0;  // y offset of the text baseline within the line.
    // The font of the style governing `end` (a caret there takes its height).
    const Font* end_font = nullptr;
    std::vector<Segment> segments;
  };

  // Re-layouts from top_pos_ into lines_.  `width_limit`/-1 = allocation.
  void LayoutLines();
  void EnsureLayout();
  void MarkDirty();
  // Partial invalidation: layout before document position `pos` stays valid.
  void MarkDirtyFrom(int64_t pos);

  const std::vector<LineBox>& lines() const { return lines_; }

  // Margins around the text (PagedTextView widens these into page insets).
  int margin_x_ = 4;
  int margin_y_ = 2;
  // Whether FullUpdate clears the background first (PagedTextView paints its
  // own page chrome and turns this off).
  bool draw_background_ = true;

 private:
  View* ChildViewFor(const TextData::EmbeddedObject& embedded);
  void PruneStaleChildren();
  void ScrollCaretIntoView();
  void DrawCaret();
  void DrawSelection();
  // The laid-out font of the character at `pos`, or nullptr when `pos` is
  // not laid out.
  const Font* LaidOutFontAt(int64_t pos) const;

  int64_t dot_pos_ = 0;
  int64_t dot_len_ = 0;
  int64_t top_pos_ = 0;
  int64_t sel_anchor_ = 0;  // Mouse-drag selection anchor.
  std::vector<LineBox> lines_;
  // Child views keyed by anchor identity (two anchors on one shared data
  // object are two independent embedded views, per §2).
  std::map<uint64_t, std::unique_ptr<View>> child_views_;
  bool needs_layout_ = true;
  uint64_t layout_count_ = 0;
  uint64_t layout_lines_reused_ = 0;

  // Layout-cache bookkeeping: the first document position whose layout may
  // be stale (INT64_MAX = everything laid out is valid), and the geometry
  // the cached lines were laid out against.  A geometry or scroll change
  // invalidates everything; an edit invalidates from one line above it
  // (word wrap can pull characters back across at most one line boundary).
  int64_t dirty_from_pos_ = 0;
  bool layout_all_dirty_ = true;
  int laid_width_ = -1;
  int laid_height_ = -1;
  int64_t laid_top_pos_ = -1;

  // DesiredSize measurement memo, keyed on the data object's modification
  // clock and the offered size.
  const TextData* measured_data_ = nullptr;
  uint64_t measured_mod_time_ = 0;
  Size measured_available_;
  Size measured_result_;
  bool measured_valid_ = false;
};

}  // namespace atk

#endif  // ATK_SRC_COMPONENTS_TEXT_TEXT_VIEW_H_
