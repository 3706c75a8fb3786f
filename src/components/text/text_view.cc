#include "src/components/text/text_view.h"

#include <algorithm>
#include <limits>

#include "src/class_system/loader.h"
#include "src/components/frame/unknown_view.h"
#include "src/observability/observability.h"

namespace atk {

namespace {
bool g_layout_cache_enabled = true;

// The style and font governing a position.  A lookup re-resolves them only
// when it leaves the stretch of text the previous resolution covered, so a
// pass over the text resolves a font once per style run, not per character.
class StyleCursor {
 public:
  explicit StyleCursor(const TextData& data) : data_(data) {}

  const Style& Seek(int64_t pos) {
    if (pos < from_ || pos >= to_) {
      style_ = &data_.StyleAt(pos, &to_);
      font_ = &Font::Get(style_->font);
      from_ = pos;
    }
    return *style_;
  }
  const Font& font() const { return *font_; }

 private:
  const TextData& data_;
  int64_t from_ = 0;  // [from_, to_) has style_; empty until the first Seek.
  int64_t to_ = 0;
  const Style* style_ = nullptr;
  const Font* font_ = nullptr;
};
}  // namespace

void TextView::SetLayoutCacheEnabled(bool enabled) { g_layout_cache_enabled = enabled; }

bool TextView::layout_cache_enabled() { return g_layout_cache_enabled; }

ATK_DEFINE_CLASS(TextView, View, "textview")

TextView::TextView() { SetPreferredCursor(CursorShape::kIBeam); }

TextView::~TextView() = default;

TextData* TextView::text() const { return ObjectCast<TextData>(data_object()); }

void TextView::SetText(TextData* data) {
  SetDataObject(data);
  dot_pos_ = 0;
  dot_len_ = 0;
  top_pos_ = 0;
  MarkDirty();
}

std::string& TextView::KillBuffer() {
  static std::string* buffer = new std::string();
  return *buffer;
}

void TextView::MarkDirty() {
  needs_layout_ = true;
  layout_all_dirty_ = true;
  PostUpdate();
}

void TextView::MarkDirtyFrom(int64_t pos) {
  needs_layout_ = true;
  if (!layout_all_dirty_) {
    dirty_from_pos_ = std::min(dirty_from_pos_, pos);
  }
  PostUpdate();
}

void TextView::ObservedChanged(Observable* changed, const Change& change) {
  if (change.kind == Change::Kind::kDestroyed) {
    View::ObservedChanged(changed, change);
    return;
  }
  // Delayed update: note that layout is stale and schedule one repaint; the
  // actual work happens in the next update cycle.
  int64_t limit = text() != nullptr ? text()->size() : 0;
  if (change.kind == Change::Kind::kDeleted && dot_pos_ > change.pos) {
    dot_pos_ = std::max(change.pos, dot_pos_ - change.removed);
  }
  dot_pos_ = std::clamp<int64_t>(dot_pos_, 0, limit);
  dot_len_ = std::clamp<int64_t>(dot_len_, 0, limit - dot_pos_);
  // Positional changes invalidate layout only from the change onward; an
  // unspecified kModified invalidates everything.
  switch (change.kind) {
    case Change::Kind::kInserted:
    case Change::Kind::kDeleted:
    case Change::Kind::kReplaced:
    case Change::Kind::kAttributes:
      MarkDirtyFrom(change.pos);
      break;
    default:
      MarkDirty();
      break;
  }
}

// ---- Caret & selection ---------------------------------------------------

void TextView::SetDot(int64_t pos, int64_t len) {
  int64_t limit = text() != nullptr ? text()->size() : 0;
  dot_pos_ = std::clamp<int64_t>(pos, 0, limit);
  dot_len_ = std::clamp<int64_t>(len, 0, limit - dot_pos_);
  PostUpdate();
}

std::string TextView::SelectedText() const {
  return text() != nullptr ? text()->GetText(dot_pos_, dot_len_) : "";
}

// ---- Editing --------------------------------------------------------------

void TextView::SelfInsert(char ch) { InsertText(std::string_view(&ch, 1)); }

void TextView::InsertText(std::string_view s) {
  TextData* data = text();
  if (data == nullptr) {
    return;
  }
  if (HasSelection()) {
    data->DeleteRange(dot_pos_, dot_len_);
    dot_len_ = 0;
  }
  data->InsertString(dot_pos_, s);
  dot_pos_ += static_cast<int64_t>(s.size());
  ScrollCaretIntoView();
}

void TextView::DeleteBackward() {
  TextData* data = text();
  if (data == nullptr) {
    return;
  }
  if (HasSelection()) {
    data->DeleteRange(dot_pos_, dot_len_);
    dot_len_ = 0;
    return;
  }
  if (dot_pos_ > 0) {
    data->DeleteRange(dot_pos_ - 1, 1);
  }
}

void TextView::DeleteForward() {
  TextData* data = text();
  if (data == nullptr) {
    return;
  }
  if (HasSelection()) {
    data->DeleteRange(dot_pos_, dot_len_);
    dot_len_ = 0;
    return;
  }
  if (dot_pos_ < data->size()) {
    data->DeleteRange(dot_pos_, 1);
  }
}

void TextView::MoveForward() { SetDot(dot_pos_ + std::max<int64_t>(dot_len_, 1)); }

void TextView::MoveBackward() { SetDot(dot_pos_ - 1); }

void TextView::MoveLineStart() {
  if (text() != nullptr) {
    SetDot(text()->LineStart(dot_pos_));
  }
}

void TextView::MoveLineEnd() {
  if (text() != nullptr) {
    SetDot(text()->LineEnd(dot_pos_));
  }
}

void TextView::MoveUp() {
  TextData* data = text();
  if (data == nullptr) {
    return;
  }
  int64_t col = dot_pos_ - data->LineStart(dot_pos_);
  int64_t line = data->LineOfPos(dot_pos_);
  if (line == 0) {
    return;
  }
  int64_t prev_start = data->PosOfLine(line - 1);
  int64_t prev_end = data->LineEnd(prev_start);
  SetDot(std::min(prev_start + col, prev_end));
  ScrollCaretIntoView();
}

void TextView::MoveDown() {
  TextData* data = text();
  if (data == nullptr) {
    return;
  }
  int64_t col = dot_pos_ - data->LineStart(dot_pos_);
  int64_t line = data->LineOfPos(dot_pos_);
  if (line + 1 >= data->LineCount()) {
    return;
  }
  int64_t next_start = data->PosOfLine(line + 1);
  int64_t next_end = data->LineEnd(next_start);
  SetDot(std::min(next_start + col, next_end));
  ScrollCaretIntoView();
}

void TextView::KillLine() {
  TextData* data = text();
  if (data == nullptr) {
    return;
  }
  int64_t end = data->LineEnd(dot_pos_);
  if (end == dot_pos_ && end < data->size()) {
    end = dot_pos_ + 1;  // At line end: kill the newline itself.
  }
  if (end > dot_pos_) {
    KillBuffer() = data->GetText(dot_pos_, end - dot_pos_);
    data->DeleteRange(dot_pos_, end - dot_pos_);
  }
}

void TextView::Yank() { InsertText(KillBuffer()); }

void TextView::CopyRegion() {
  if (HasSelection()) {
    KillBuffer() = SelectedText();
  }
}

void TextView::CutRegion() {
  if (HasSelection()) {
    KillBuffer() = SelectedText();
    text()->DeleteRange(dot_pos_, dot_len_);
    dot_len_ = 0;
  }
}

void TextView::Paste() { InsertText(KillBuffer()); }

void TextView::StyleSelection(const std::string& style_name) {
  if (text() != nullptr && HasSelection()) {
    text()->ApplyStyle(dot_pos_, dot_len_, style_name);
  }
}

DataObject* TextView::InsertObjectAtDot(std::unique_ptr<DataObject> data,
                                        std::string_view view_type) {
  TextData* t = text();
  if (t == nullptr) {
    return nullptr;
  }
  DataObject* child = t->InsertObject(dot_pos_, std::move(data), view_type);
  if (child != nullptr) {
    ++dot_pos_;
  }
  return child;
}

// ---- Scrolling ---------------------------------------------------------------

ScrollInfo TextView::GetScrollInfo() {
  ScrollInfo info;
  TextData* data = text();
  if (data == nullptr) {
    return info;
  }
  // `visible` counts laid-out lines: a scroll or edit since the last paint
  // must be laid out first, or a scroll bar painted before this view would
  // draw the previous layout's elevator.
  EnsureLayout();
  info.total = data->LineCount();
  info.first_visible = data->LineOfPos(top_pos_);
  // Count distinct document lines currently laid out.
  int64_t last = top_pos_;
  for (const LineBox& line : lines_) {
    last = std::max(last, line.end);
  }
  info.visible = std::max<int64_t>(1, data->LineOfPos(last) - info.first_visible + 1);
  return info;
}

void TextView::ScrollToUnit(int64_t unit) {
  TextData* data = text();
  if (data == nullptr) {
    return;
  }
  unit = std::clamp<int64_t>(unit, 0, data->LineCount() - 1);
  int64_t pos = data->PosOfLine(unit);
  if (pos != top_pos_) {
    top_pos_ = pos;
    MarkDirty();
  }
}

void TextView::ScrollCaretIntoView() {
  TextData* data = text();
  if (data == nullptr || graphic() == nullptr) {
    return;
  }
  EnsureLayout();
  if (lines_.empty()) {
    return;
  }
  if (dot_pos_ < lines_.front().start) {
    top_pos_ = data->LineStart(dot_pos_);
    MarkDirty();
    return;
  }
  const LineBox& last = lines_.back();
  bool below = dot_pos_ > last.end ||
               (dot_pos_ == last.end && last.y + 2 * last.height > graphic()->height());
  if (below) {
    // Scroll down so the caret's document line is the last visible: move the
    // top forward one document line at a time (robust, documents are small).
    int64_t caret_line = data->LineOfPos(dot_pos_);
    int64_t top_line = data->LineOfPos(top_pos_);
    int visible = std::max(1, visible_line_count());
    int64_t want_top = std::max<int64_t>(top_line + 1, caret_line - visible + 2);
    ScrollToUnit(want_top);
  }
}

// ---- Layout --------------------------------------------------------------------

void TextView::Layout() { MarkDirty(); }

Size TextView::DesiredSize(Size available) {
  TextData* data = text();
  if (data == nullptr) {
    return Size{60, 20};
  }
  // Measurement memo: re-walking the whole document is linear in its size,
  // so skip it when neither the document nor the offered space has changed.
  if (measured_valid_ && measured_data_ == data &&
      measured_mod_time_ == data->modification_time() && measured_available_ == available) {
    return measured_result_;
  }
  // Measure without wrapping: width of the longest line, total line heights.
  int max_width = 0;
  int total_height = 0;
  int64_t pos = 0;
  StyleCursor at(*data);
  while (pos <= data->size()) {
    int64_t end = data->LineEnd(pos);
    int line_width = 0;
    at.Seek(pos);
    int line_height = at.font().height();
    for (int64_t i = pos; i < end; ++i) {
      at.Seek(i);
      const Font& font = at.font();
      if (data->CharAt(i) == TextData::kObjectChar) {
        // Embedded objects in measured text: use a nominal box.
        line_width += 40;
        line_height = std::max(line_height, 24);
      } else {
        line_width += font.advance();
        line_height = std::max(line_height, font.height());
      }
    }
    max_width = std::max(max_width, line_width);
    total_height += line_height;
    if (end >= data->size()) {
      break;
    }
    pos = end + 1;
  }
  Size desired{max_width + 2 * margin_x_, total_height + 2 * margin_y_};
  if (available.width > 0) {
    desired.width = std::min(desired.width, available.width);
  }
  if (available.height > 0) {
    desired.height = std::min(desired.height, available.height);
  }
  measured_data_ = data;
  measured_mod_time_ = data->modification_time();
  measured_available_ = available;
  measured_result_ = desired;
  measured_valid_ = true;
  return desired;
}

View* TextView::ChildViewFor(const TextData::EmbeddedObject& embedded) {
  auto it = child_views_.find(embedded.anchor_id);
  if (it != child_views_.end()) {
    return it->second.get();
  }
  // Dynamic loading happens here: the embedded object's view class may live
  // in a module that has never been loaded (§1's music example).
  std::unique_ptr<View> view =
      ObjectCast<View>(Loader::Instance().NewObject(embedded.view_type));
  if (view == nullptr) {
    // Graceful degradation: the view class is unavailable (load failure or
    // genuinely unknown type, e.g. a salvage quarantine).  A placeholder
    // names the missing class; the data object is preserved untouched.
    auto placeholder = std::make_unique<UnknownView>();
    if (embedded.view_type != "unknownview") {
      placeholder->SetMissingType(embedded.view_type);
    }
    view = std::move(placeholder);
  }
  view->SetDataObject(embedded.data.get());
  View* raw = view.get();
  AddChild(raw);
  child_views_[embedded.anchor_id] = std::move(view);
  return raw;
}

void TextView::PruneStaleChildren() {
  TextData* data = text();
  for (auto it = child_views_.begin(); it != child_views_.end();) {
    bool alive = false;
    if (data != nullptr) {
      for (const auto& embedded : data->embedded_objects()) {
        if (embedded.anchor_id == it->first) {
          alive = true;
          break;
        }
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

void TextView::EnsureLayout() {
  if (needs_layout_ && graphic() != nullptr) {
    LayoutLines();
  }
}

void TextView::LayoutLines() {
  needs_layout_ = false;
  ++layout_count_;
  TextData* data = text();
  if (data == nullptr || graphic() == nullptr) {
    lines_.clear();
    layout_all_dirty_ = true;
    return;
  }
  PruneStaleChildren();
  const int view_width = graphic()->width();
  const int view_height = graphic()->height();
  const int usable_width = std::max(8, view_width - 2 * margin_x_);

  int y = margin_y_;
  int64_t pos = data->LineStart(std::min(top_pos_, data->size()));
  top_pos_ = pos;
  const int64_t doc_size = data->size();

  // Damage-aware prefix reuse: lines that end strictly before the first
  // dirty position, laid out against the same geometry and scroll origin,
  // are still valid.  Back off one extra line because word wrap can pull
  // characters backwards across a single line boundary.  Kept lines contain
  // only content before the edit, so their segment style/child pointers are
  // still live (styles live in a std::map; a deleted anchor lands at or
  // after the change position and is therefore never in a kept line).
  size_t keep = 0;
  if (layout_cache_enabled() && !layout_all_dirty_ && laid_width_ == view_width &&
      laid_height_ == view_height && laid_top_pos_ == pos && !lines_.empty()) {
    while (keep < lines_.size() && lines_[keep].end < dirty_from_pos_) {
      ++keep;
    }
    if (keep > 0) {
      --keep;
    }
  }
  StyleCursor at(*data);
  if (keep > 0) {
    static observability::Counter& cache_hits =
        observability::MetricsRegistry::Instance().counter("text.layout.cache_hit");
    cache_hits.Add(keep);
    layout_lines_reused_ += keep;
    pos = lines_[keep].start;
    y = lines_[keep].y - at.Seek(pos).space_above;
    lines_.resize(keep);
  } else {
    lines_.clear();
  }

  while (y < view_height && pos <= doc_size) {
    LineBox line;
    line.start = pos;
    line.y = y;
    const Style& line_style = at.Seek(pos);
    int indent = line_style.indent_left;
    int x = indent;
    int max_ascent = at.font().ascent();
    int max_descent = at.font().descent();
    int64_t last_space_pos = -1;

    y += line_style.space_above;
    line.y = y;

    while (pos < doc_size) {
      char ch = data->CharAt(pos);
      if (ch == '\n') {
        break;
      }
      const Style& style = at.Seek(pos);
      const Font& font = at.font();
      if (ch == TextData::kObjectChar) {
        const TextData::EmbeddedObject* embedded = data->EmbeddedAt(pos);
        View* child = embedded != nullptr ? ChildViewFor(*embedded) : nullptr;
        Size child_size{40, 24};
        if (child != nullptr) {
          child_size = child->DesiredSize(Size{usable_width - x, view_height});
        }
        if (x > indent && x + child_size.width > usable_width) {
          break;  // Wrap the object to the next line.
        }
        Segment seg;
        seg.start = pos;
        seg.end = pos + 1;
        seg.x = margin_x_ + x;
        seg.width = child_size.width;
        seg.font = &font;
        seg.child = child;
        line.segments.push_back(seg);
        x += child_size.width;
        max_ascent = std::max(max_ascent, child_size.height);
        ++pos;
        continue;
      }
      int advance = font.advance();
      if (x + advance > usable_width && x > indent) {
        // Wrap: prefer the last space on this line, trimming the layout back
        // to just after it.
        if (last_space_pos >= 0 && last_space_pos > line.start) {
          pos = last_space_pos + 1;
          while (!line.segments.empty() && line.segments.back().start >= pos) {
            line.segments.pop_back();
          }
          if (!line.segments.empty() && line.segments.back().end > pos) {
            Segment& seg = line.segments.back();
            seg.end = pos;
            if (seg.child == nullptr && seg.style != nullptr) {
              seg.width = static_cast<int>(seg.end - seg.start) * seg.font->advance();
            }
          }
        }
        break;
      }
      // Extend or start a text segment of this style.
      if (!line.segments.empty() && line.segments.back().child == nullptr &&
          line.segments.back().style == &style && line.segments.back().end == pos) {
        line.segments.back().end = pos + 1;
        line.segments.back().width += advance;
      } else {
        Segment seg;
        seg.start = pos;
        seg.end = pos + 1;
        seg.x = margin_x_ + x;
        seg.width = advance;
        seg.style = &style;
        seg.font = &font;
        line.segments.push_back(seg);
      }
      if (ch == ' ') {
        last_space_pos = pos;
      }
      max_ascent = std::max(max_ascent, font.ascent());
      max_descent = std::max(max_descent, font.descent());
      x += advance;
      ++pos;
    }

    line.end = pos;
    at.Seek(pos);
    line.end_font = &at.font();
    line.baseline = max_ascent;
    line.height = max_ascent + max_descent;

    // Justification: shift segments right for center/right styles.
    if (line_style.justify != Justification::kLeft && !line.segments.empty()) {
      int content_right = line.segments.back().x + line.segments.back().width;
      int slack = margin_x_ + usable_width - content_right;
      int shift = line_style.justify == Justification::kCenter ? slack / 2 : slack;
      if (shift > 0) {
        for (Segment& seg : line.segments) {
          seg.x += shift;
        }
      }
    }

    // Allocate child views now that the line geometry is final.
    for (Segment& seg : line.segments) {
      if (seg.child != nullptr) {
        Size child_size = seg.child->DesiredSize(Size{usable_width, view_height});
        int child_h = std::min(child_size.height, line.height);
        seg.child->Allocate(
            Rect{seg.x, line.y + line.baseline - child_h, seg.width, child_h}, graphic());
      }
    }

    y += line.height;
    lines_.push_back(std::move(line));

    if (pos >= doc_size) {
      break;
    }
    if (data->CharAt(pos) == '\n') {
      ++pos;
      if (pos == doc_size) {
        // Trailing newline: show the empty last line.
        LineBox tail;
        tail.start = tail.end = pos;
        tail.y = y;
        at.Seek(pos);
        tail.end_font = &at.font();
        tail.baseline = tail.end_font->ascent();
        tail.height = tail.end_font->height();
        lines_.push_back(std::move(tail));
        break;
      }
    }
  }

  laid_width_ = view_width;
  laid_height_ = view_height;
  laid_top_pos_ = top_pos_;
  layout_all_dirty_ = false;
  dirty_from_pos_ = std::numeric_limits<int64_t>::max();
}

// ---- Painting ---------------------------------------------------------------------

void TextView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  EnsureLayout();
  if (draw_background_) {
    g->Clear();
  }
  TextData* data = text();
  if (data == nullptr) {
    return;
  }
  for (const LineBox& line : lines_) {
    for (const Segment& seg : line.segments) {
      if (seg.child != nullptr || seg.style == nullptr) {
        continue;  // Children (and viewless placeholders) are not text runs.
      }
      g->SetFont(*seg.font);
      g->SetForeground(seg.style->color);
      std::string run = data->GetText(seg.start, seg.end - seg.start);
      g->DrawString(Point{seg.x, line.y + line.baseline - seg.font->ascent()}, run);
    }
  }
  // Placeholder boxes for embedded objects without a view class.
  for (const LineBox& line : lines_) {
    for (const Segment& seg : line.segments) {
      if (seg.end == seg.start + 1 && seg.child == nullptr &&
          data->CharAt(seg.start) == TextData::kObjectChar) {
        g->FillRect(Rect{seg.x, line.y, seg.width, line.height}, kLightGray);
        g->DrawRect(Rect{seg.x, line.y, seg.width, line.height});
      }
    }
  }
  DrawSelection();
  if (has_input_focus() || dot_len_ == 0) {
    DrawCaret();
  }
}

void TextView::DrawCaret() {
  if (dot_len_ != 0) {
    return;
  }
  Point p = PointAtPos(dot_pos_);
  if (p.x < 0) {
    return;
  }
  Graphic* g = graphic();
  const Font* laid_out = LaidOutFontAt(dot_pos_);
  const Font& font = laid_out != nullptr ? *laid_out : Font::Default();
  g->SetForeground(kBlack);
  g->DrawLine(Point{p.x, p.y}, Point{p.x, p.y + font.height() - 1});
  // The classic Andrew caret: a small triangle under the insertion point.
  g->DrawLine(Point{p.x - 2, p.y + font.height() + 1}, Point{p.x + 2, p.y + font.height() + 1});
}

const Font* TextView::LaidOutFontAt(int64_t pos) const {
  // The first line holding `pos`, as in PointAtPos.
  for (const LineBox& line : lines_) {
    if (pos < line.start || pos > line.end) {
      continue;
    }
    for (const Segment& seg : line.segments) {
      if (pos >= seg.start && pos < seg.end) {
        return seg.font;
      }
    }
    return line.end_font;
  }
  return nullptr;
}

void TextView::DrawSelection() {
  if (dot_len_ <= 0) {
    return;
  }
  Graphic* g = graphic();
  int64_t sel_start = dot_pos_;
  int64_t sel_end = dot_pos_ + dot_len_;
  for (const LineBox& line : lines_) {
    for (const Segment& seg : line.segments) {
      if (seg.child != nullptr || seg.style == nullptr) {
        continue;
      }
      int64_t s = std::max(sel_start, seg.start);
      int64_t e = std::min(sel_end, seg.end);
      if (s >= e || seg.end == seg.start) {
        continue;
      }
      int x0 = seg.x + static_cast<int>(s - seg.start) * seg.font->advance();
      int x1 = seg.x + static_cast<int>(e - seg.start) * seg.font->advance();
      g->InvertRect(Rect{x0, line.y, x1 - x0, line.height});
    }
  }
}

// ---- Hit testing & input -------------------------------------------------------------

int64_t TextView::PosAtPoint(Point p) {
  EnsureLayout();
  TextData* data = text();
  if (data == nullptr) {
    return 0;
  }
  if (lines_.empty()) {
    return 0;
  }
  const LineBox* line = &lines_.back();
  for (const LineBox& candidate : lines_) {
    if (p.y < candidate.y + candidate.height) {
      line = &candidate;
      break;
    }
  }
  if (line->segments.empty()) {
    return line->start;
  }
  for (const Segment& seg : line->segments) {
    if (p.x < seg.x + seg.width) {
      if (p.x < seg.x) {
        return seg.start;
      }
      if (seg.child != nullptr || seg.style == nullptr) {
        return seg.start;
      }
      int64_t idx = seg.font->CharIndexAt(p.x - seg.x);
      return std::min(seg.start + idx, seg.end);
    }
  }
  return line->end;
}

Point TextView::PointAtPos(int64_t pos) {
  EnsureLayout();
  for (const LineBox& line : lines_) {
    if (pos < line.start || pos > line.end) {
      continue;
    }
    int x = margin_x_;
    for (const Segment& seg : line.segments) {
      if (pos < seg.start) {
        break;
      }
      if (pos <= seg.end) {
        if (seg.child != nullptr || seg.style == nullptr || seg.end == seg.start) {
          return Point{pos == seg.start ? seg.x : seg.x + seg.width, line.y};
        }
        return Point{seg.x + static_cast<int>(pos - seg.start) * seg.font->advance(), line.y};
      }
      x = seg.x + seg.width;
    }
    return Point{x, line.y};
  }
  return Point{-1, -1};
}

View* TextView::Hit(const InputEvent& event) {
  EnsureLayout();
  // Parental authority: offer the event to an embedded child whose box
  // contains the point; the child may decline, in which case we treat the
  // position as a caret location.
  if (event.type == EventType::kMouseDown || event.type == EventType::kMouseUp) {
    for (const LineBox& line : lines_) {
      for (const Segment& seg : line.segments) {
        if (seg.child != nullptr && seg.child->bounds().Contains(event.pos)) {
          View* taken = seg.child->Hit(TranslateToChild(event, *seg.child));
          if (taken != nullptr) {
            return taken;
          }
        }
      }
    }
  }
  switch (event.type) {
    case EventType::kMouseDown:
      sel_anchor_ = PosAtPoint(event.pos);
      SetDot(sel_anchor_, 0);
      RequestInputFocus();
      return this;
    case EventType::kMouseDrag:
    case EventType::kMouseUp: {
      int64_t pos = PosAtPoint(event.pos);
      SetDot(std::min(pos, sel_anchor_), std::max(pos, sel_anchor_) -
                                             std::min(pos, sel_anchor_));
      return this;
    }
    default:
      return nullptr;
  }
}

bool TextView::HandleKey(char key, unsigned modifiers) {
  (void)modifiers;
  if (text() == nullptr) {
    return false;
  }
  if (key == '\r' || key == '\n') {
    InsertText("\n");
    return true;
  }
  if (key == '\b' || key == '\177') {
    DeleteBackward();
    return true;
  }
  if (key >= 0x20 && key < 0x7F) {
    SelfInsert(key);
    return true;
  }
  return false;
}

void TextView::FillMenus(MenuList& menus) {
  menus.Add("Edit~Cut", "textview-cut");
  menus.Add("Edit~Copy", "textview-copy");
  menus.Add("Edit~Paste", "textview-paste");
  menus.Add("Style~Plain", "textview-style-plain");
  menus.Add("Style~Bold", "textview-style-bold");
  menus.Add("Style~Italic", "textview-style-italic");
  menus.Add("Style~Heading", "textview-style-heading");
  menus.Add("Style~Center", "textview-style-center");
}

const KeyMap& TextView::DefaultKeyMap() {
  static KeyMap* map = [] {
    auto* m = new KeyMap();
    m->Bind(std::string{Ctl('f')}, "textview-forward-char");
    m->Bind(std::string{Ctl('b')}, "textview-backward-char");
    m->Bind(std::string{Ctl('n')}, "textview-next-line");
    m->Bind(std::string{Ctl('p')}, "textview-previous-line");
    m->Bind(std::string{Ctl('a')}, "textview-beginning-of-line");
    m->Bind(std::string{Ctl('e')}, "textview-end-of-line");
    m->Bind(std::string{Ctl('d')}, "textview-delete-next-char");
    m->Bind(std::string{Ctl('k')}, "textview-kill-line");
    m->Bind(std::string{Ctl('y')}, "textview-yank");
    m->Bind(std::string{Ctl('w')}, "textview-cut");
    m->Bind("\033w", "textview-copy");
    m->Bind(std::string{Ctl('v')}, "textview-scroll-forward");
    m->Bind("\033v", "textview-scroll-backward");
    return m;
  }();
  return *map;
}

const KeyMap* TextView::GetKeyMap() const { return &DefaultKeyMap(); }

}  // namespace atk
