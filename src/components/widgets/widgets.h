// Simple chrome widgets: labels, push buttons, and the string-list view used
// by the messages and help applications (folder lists, message captions,
// topic indexes).  These are the "usual set of simple components" of §1.

#ifndef ATK_SRC_COMPONENTS_WIDGETS_WIDGETS_H_
#define ATK_SRC_COMPONENTS_WIDGETS_WIDGETS_H_

#include <functional>
#include <string>
#include <vector>

#include "src/base/scrollable.h"
#include "src/base/view.h"

namespace atk {

class LabelView : public View {
  ATK_DECLARE_CLASS(LabelView)

 public:
  LabelView() = default;
  explicit LabelView(std::string text) : text_(std::move(text)) {}

  void SetLabel(std::string text);
  const std::string& label() const { return text_; }
  void SetFont(const FontSpec& spec);

  void FullUpdate() override;
  Size DesiredSize(Size available) override;

 private:
  std::string text_;
  FontSpec font_{"andy", 10, kPlain};
};

class ButtonView : public View {
  ATK_DECLARE_CLASS(ButtonView)

 public:
  ButtonView() = default;
  ButtonView(std::string label, std::string proc_name, long rock = 0)
      : label_(std::move(label)), proc_name_(std::move(proc_name)), rock_(rock) {}

  void SetLabel(std::string label);
  const std::string& label() const { return label_; }
  // The proc invoked on click (through the ProcTable, so a button can fire a
  // command from a module not yet loaded).
  void SetProc(std::string proc_name, long rock = 0);
  // Direct callback alternative for in-process wiring.
  void SetAction(std::function<void()> action) { action_ = std::move(action); }

  bool pressed() const { return pressed_; }
  int click_count() const { return clicks_; }

  void FullUpdate() override;
  Size DesiredSize(Size available) override;
  View* Hit(const InputEvent& event) override;

 private:
  std::string label_;
  std::string proc_name_;
  long rock_ = 0;
  std::function<void()> action_;
  bool pressed_ = false;
  int clicks_ = 0;
};

// A scrollable list of selectable strings.
class ListView : public View, public Scrollable {
  ATK_DECLARE_CLASS(ListView)

 public:
  ListView();

  void SetItems(std::vector<std::string> items);
  const std::vector<std::string>& items() const { return items_; }
  void AddItem(std::string item);
  void ClearItems();

  int selected() const { return selected_; }
  void Select(int index);
  const std::string* SelectedItem() const;
  // Called whenever the selection changes by click or Select().
  void SetOnSelect(std::function<void(int)> on_select) { on_select_ = std::move(on_select); }

  // ---- Scrollable ----
  ScrollInfo GetScrollInfo() override;
  void ScrollToUnit(int64_t unit) override;

  // ---- View protocol ----
  void FullUpdate() override;
  View* Hit(const InputEvent& event) override;
  bool HandleKey(char key, unsigned modifiers) override;
  Size DesiredSize(Size available) override;

  int RowHeight() const;
  int64_t first_visible() const { return first_visible_; }

 private:
  int RowsVisible() const;

  std::vector<std::string> items_;
  int selected_ = -1;
  int64_t first_visible_ = 0;
  std::function<void(int)> on_select_;
};

}  // namespace atk

#endif  // ATK_SRC_COMPONENTS_WIDGETS_WIDGETS_H_
