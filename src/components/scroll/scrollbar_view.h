// ScrollBarView — §2's example of a view with no data object: "It only
// adjusts the information contained in another view."
//
// Following the paper's view-tree figure, the scroll bar *wraps* the view it
// adorns: the body view is the scroll bar's one child, the bar itself
// occupying a strip on the left (the classic Andrew placement).  The body
// must implement Scrollable; the bar renders an elevator proportional to the
// visible fraction and translates clicks/drags into ScrollToUnit calls.

#ifndef ATK_SRC_COMPONENTS_SCROLL_SCROLLBAR_VIEW_H_
#define ATK_SRC_COMPONENTS_SCROLL_SCROLLBAR_VIEW_H_

#include "src/base/scrollable.h"
#include "src/base/view.h"

namespace atk {

class ScrollBarView : public View {
  ATK_DECLARE_CLASS(ScrollBarView)

 public:
  static constexpr int kBarWidth = 14;

  ScrollBarView();

  // Wraps `body` (also linked as the child).  `scrollable` defaults to
  // dynamic_cast<Scrollable*>(body).
  void SetBody(View* body, Scrollable* scrollable = nullptr);
  View* body() const { return body_; }

  void Layout() override;
  void FullUpdate() override;
  View* Hit(const InputEvent& event) override;
  CursorShape CursorAt(Point local) override;
  // §3's upward channel passes through the bar on its way from the body.
  // When a post from the body comes with a moved elevator (a key
  // page-scroll, a line-count change, a replaced document), the bar strip
  // is posted too — the strip only, so the body is not repainted for it.
  void WantUpdate(View* requestor, const Rect& device_region) override;

  // The elevator rectangle in local coordinates (empty when no scrollable).
  Rect ElevatorRect() const;

 private:
  void ScrollToFraction(double fraction);

  View* body_ = nullptr;
  Scrollable* scrollable_ = nullptr;
  bool dragging_ = false;
  int drag_offset_ = 0;
  Rect painted_elevator_;  // As last drawn by FullUpdate.
};

}  // namespace atk

#endif  // ATK_SRC_COMPONENTS_SCROLL_SCROLLBAR_VIEW_H_
