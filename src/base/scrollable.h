// The scrolling interface negotiated between a scroll bar and the view it
// adorns.  The scroll bar is §2's example of a view with no data object: it
// "only adjusts the information contained in another view" — through this
// interface.

#ifndef ATK_SRC_BASE_SCROLLABLE_H_
#define ATK_SRC_BASE_SCROLLABLE_H_

#include <cstdint>

namespace atk {

struct ScrollInfo {
  // All in abstract units chosen by the scrollee (text uses document lines).
  int64_t total = 0;
  int64_t first_visible = 0;
  int64_t visible = 0;
};

class Scrollable {
 public:
  virtual ~Scrollable() = default;

  // Describes what the next paint shows: a scrollee whose layout is stale
  // lays out first, which is why this is not const.
  virtual ScrollInfo GetScrollInfo() = 0;
  // Makes `unit` the first visible unit (clamped by the scrollee).
  virtual void ScrollToUnit(int64_t unit) = 0;
  virtual void ScrollByUnits(int64_t delta) {
    ScrollToUnit(GetScrollInfo().first_visible + delta);
  }
};

}  // namespace atk

#endif  // ATK_SRC_BASE_SCROLLABLE_H_
