// View — the user-interface half of a component (§2, §3).
//
// Views form a tree: each view is a rectangle completely contained in its
// parent, rooted at the interaction manager.  The toolkit defines no screen
// relationship between siblings — that is the parent's business.  Events are
// passed *down* the tree, each parent deciding the disposition for its
// children ("parental authority"); update requests are posted *up* the tree
// and come back down as one coalesced update pass.
//
// A view draws exclusively through its Graphic (created by the parent as a
// sub-drawable clipped to the child's allocation), holds only transient
// state, and may observe a data object, scheduling repaints when notified.

#ifndef ATK_SRC_BASE_VIEW_H_
#define ATK_SRC_BASE_VIEW_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/data_object.h"
#include "src/base/keymap.h"
#include "src/base/menus.h"
#include "src/class_system/object.h"
#include "src/class_system/observable.h"
#include "src/graphics/cursor_shape.h"
#include "src/graphics/graphic.h"
#include "src/wm/event.h"

namespace atk {

class InteractionManager;

class View : public Object, public Observer {
  ATK_DECLARE_CLASS(View)

 public:
  View();
  ~View() override;

  View(const View&) = delete;
  View& operator=(const View&) = delete;

  // ---- Tree structure ----------------------------------------------------
  View* parent() const { return parent_; }
  const std::vector<View*>& children() const { return children_; }
  // Links `child` under this view (no geometry yet; Layout allocates).
  // Links are non-owning; whoever created the child keeps ownership.
  void AddChild(View* child);
  void RemoveChild(View* child);
  // The interaction manager at the root of this view's tree, or nullptr
  // when the view is not yet in a tree.
  virtual InteractionManager* GetIM();
  int TreeDepth() const;

  // ---- Data object -------------------------------------------------------
  // Starts observing `data` (detaching from any previous data object).
  // The view does not own its data object.
  void SetDataObject(DataObject* data);
  DataObject* data_object() const { return data_object_; }
  // Default reaction to data changes: schedule a full repaint.  Components
  // override to damage only what changed (the delayed-update mechanism).
  void ObservedChanged(Observable* changed, const Change& change) override;

  // ---- Geometry & allocation ----------------------------------------------
  // Bounds within the parent's coordinate space.
  const Rect& bounds() const { return bounds_; }
  // Allocates screen space: creates this view's drawable as a sub-graphic of
  // `parent_graphic` covering `in_parent`, then runs Layout() so the view
  // allocates its own children.  Called by the parent's Layout.
  void Allocate(const Rect& in_parent, Graphic* parent_graphic);
  // Root variant used by the interaction manager and the printer.
  void AllocateRoot(Graphic* root_graphic);
  Graphic* graphic() const { return graphic_.get(); }
  bool HasGraphic() const { return graphic_ != nullptr; }
  // This view's allocation in window (device) coordinates.
  Rect DeviceBounds() const;
  // Places children; runs on every (re)allocation.  Implementations must
  // Allocate() each child every time (drawables are rebuilt on resize).
  virtual void Layout() {}
  // Preferred size given the space the parent is considering (§2: "how to
  // determine the size and placement of embedded components").
  virtual Size DesiredSize(Size available) { return available; }

  // ---- Painting ------------------------------------------------------------
  // Draws this view's own content.  Children are drawn by the update pass
  // *after* the parent, so the parent's image is below its children's.
  // The paint contract: together, a view and its children paint every
  // pixel of the view's allocation.  Each child paints all of its own, so a
  // parent paints only the area it allocated to no child (dividers, gaps)
  // and never pre-clears its children's area.  The default clears the whole
  // allocation, which suits a view with no children and nothing to draw.
  virtual void FullUpdate();
  // Repaints within the damage clip already applied to graphic(); default
  // is a full redraw.
  virtual void Update() { FullUpdate(); }
  // Requests a future repaint of `local` (posted up to the interaction
  // manager and coalesced; nothing is drawn now).
  void PostUpdate(const Rect& local);
  void PostUpdate() { PostUpdate(graphic_ ? graphic_->LocalBounds() : Rect{}); }
  // The upward channel: `device_region` is in window coordinates.  Default
  // forwards to the parent; the interaction manager overrides and collects.
  virtual void WantUpdate(View* requestor, const Rect& device_region);

  // ---- Input ----------------------------------------------------------------
  // Mouse dispatch: `event` has coordinates local to this view.  Return the
  // view that takes the event (it becomes the mouse grab for the rest of
  // the click), or nullptr to decline.  The default consults children whose
  // bounds contain the point (topmost = last linked, first consulted) and
  // declines otherwise; interactive views override.
  virtual View* Hit(const InputEvent& event);
  // Keyboard: return true when consumed.  Runs from the focus view upward.
  virtual bool HandleKey(char key, unsigned modifiers);
  // Contributes menu items while this view is on the focus path.
  virtual void FillMenus(MenuList& menus);
  // Keymap consulted (innermost first along the focus path).
  virtual const KeyMap* GetKeyMap() const { return nullptr; }
  // Cursor arbitration: parent is asked before children and may override
  // (the frame shows its drag cursor over the children's edge).  Default:
  // delegate to the child under the point, else this view's preferred shape.
  virtual CursorShape CursorAt(Point local);
  void SetPreferredCursor(CursorShape shape) { preferred_cursor_ = shape; }
  CursorShape preferred_cursor() const { return preferred_cursor_; }

  // ---- Input focus -----------------------------------------------------------
  void RequestInputFocus();
  virtual void ReceiveInputFocus() { has_input_focus_ = true; }
  virtual void LoseInputFocus() { has_input_focus_ = false; }
  bool has_input_focus() const { return has_input_focus_; }

  // ---- Helpers ---------------------------------------------------------------
  // Topmost child whose bounds contain `local`, or nullptr.
  View* ChildAt(Point local) const;
  // Copies `event` with coordinates shifted into `child`'s space.
  static InputEvent TranslateToChild(const InputEvent& event, const View& child);

  // ---- Introspection (read by the inspector's view-tree browser) -------------
  // Per-view clip-memo accounting, maintained by the interaction manager's
  // update pass: how often this view's damage clip was reused vs recomputed,
  // and the damage fingerprint of the last cycle that repainted it.
  uint64_t clip_memo_hits() const { return clip_memo_.hits; }
  uint64_t clip_memo_misses() const { return clip_memo_.misses; }
  uint64_t last_damage_fingerprint() const { return clip_memo_.damage_fp; }

 private:
  friend class InteractionManager;

  // Per-view damage-clip memo, maintained by the interaction manager's
  // update pass: when this view's device bounds and the cycle's damage
  // region both match the previous cycle, the computed clip intersection is
  // reused (counted as im.update.clip_reuse).  Living inside the view keeps
  // the cache lifetime exactly the view's lifetime — no stale-pointer maps.
  struct ClipMemo {
    uint64_t damage_fp = 0;
    Rect device;
    Rect clip_local;
    bool valid = false;
    // Lifetime totals (survive memo invalidation; reset never).
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  View* parent_ = nullptr;
  std::vector<View*> children_;
  DataObject* data_object_ = nullptr;
  Rect bounds_;
  std::unique_ptr<Graphic> graphic_;
  ClipMemo clip_memo_;
  CursorShape preferred_cursor_ = CursorShape::kArrow;
  bool has_input_focus_ = false;
};

// Draws `view` and its whole subtree (used by the printer and by tests that
// render outside an interaction manager).
void RenderSubtree(View& view);

}  // namespace atk

#endif  // ATK_SRC_BASE_VIEW_H_
