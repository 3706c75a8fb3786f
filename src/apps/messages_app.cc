#include "src/apps/messages_app.h"

#include "src/base/proctable.h"
#include "src/class_system/loader.h"

namespace atk {

ATK_DEFINE_CLASS(MessagesLayoutView, View, "messageslayout")
ATK_DEFINE_CLASS(MessagesApp, Application, "messagesapp")

void MessagesLayoutView::Layout() {
  if (graphic() == nullptr || children().size() < 3) {
    return;
  }
  Rect b = graphic()->LocalBounds();
  int folder_w = std::min(kFolderPaneWidth, b.width / 3);
  int caption_h = std::min(kCaptionPaneHeight, b.height / 3);
  children()[0]->Allocate(Rect{0, 0, folder_w, b.height}, graphic());
  children()[1]->Allocate(Rect{folder_w + 1, 0, b.width - folder_w - 1, caption_h}, graphic());
  children()[2]->Allocate(
      Rect{folder_w + 1, caption_h + 1, b.width - folder_w - 1, b.height - caption_h - 1},
      graphic());
}

void MessagesLayoutView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  // The three panes paint themselves; the layout owns only the two rules.
  Rect b = g->LocalBounds();
  int folder_w = std::min(kFolderPaneWidth, b.width / 3);
  int caption_h = std::min(kCaptionPaneHeight, b.height / 3);
  g->SetForeground(kBlack);
  g->DrawLine(Point{folder_w, 0}, Point{folder_w, b.height - 1});
  g->DrawLine(Point{folder_w, caption_h}, Point{b.width - 1, caption_h});
}

MessagesApp::MessagesApp() : body_data_(std::make_unique<TextData>()) {
  body_view_.SetText(body_data_.get());
  body_scroll_.SetBody(&body_view_);
  layout_.AddChild(&folder_list_);
  layout_.AddChild(&caption_list_);
  layout_.AddChild(&body_scroll_);
  frame_.SetBody(&layout_);
  folder_list_.SetOnSelect([this](int index) { SelectFolder(index); });
  caption_list_.SetOnSelect([this](int index) { SelectMessage(index); });
}

MessagesApp::~MessagesApp() = default;

std::unique_ptr<InteractionManager> MessagesApp::Start(WindowSystem& ws,
                                                       const std::vector<std::string>& args) {
  (void)args;
  auto im = InteractionManager::Create(ws, 640, 420, "messages");
  im->SetChild(&frame_);
  RefreshFolderList();
  if (!store_.folders().empty()) {
    folder_list_.Select(0);
  }
  frame_.SetMessage(std::to_string(store_.folders().size()) + " folders");
  return im;
}

void MessagesApp::RefreshFolderList() {
  std::vector<std::string> names;
  for (const MailFolder& folder : store_.folders()) {
    std::string entry = folder.name;
    int fresh = folder.NewCount();
    if (fresh > 0) {
      entry += " (" + std::to_string(fresh) + " new)";
    }
    names.push_back(std::move(entry));
  }
  folder_list_.SetItems(std::move(names));
}

void MessagesApp::SelectFolder(int index) {
  if (index < 0 || index >= static_cast<int>(store_.folders().size())) {
    return;
  }
  current_folder_ = store_.folders()[static_cast<size_t>(index)].name;
  current_message_ = -1;
  std::vector<std::string> captions;
  for (const MailMessage& message : store_.folders()[static_cast<size_t>(index)].messages) {
    captions.push_back(message.Caption());
  }
  caption_list_.SetItems(std::move(captions));
  frame_.SetMessage(current_folder_);
}

void MessagesApp::SelectMessage(int index) {
  MailFolder* folder = store_.FindFolder(current_folder_);
  if (folder == nullptr || index < 0 ||
      index >= static_cast<int>(folder->messages.size())) {
    return;
  }
  current_message_ = index;
  MailMessage& message = folder->messages[static_cast<size_t>(index)];
  message.is_new = false;
  // Parse the datastream body into the display text object; embedded
  // components (drawings, rasters...) come along automatically.
  ReadContext ctx;
  std::unique_ptr<DataObject> root = ReadDocument(message.body, &ctx);
  std::unique_ptr<TextData> next;
  if (TextData* as_text = ObjectCast<TextData>(root.get())) {
    root.release();
    next.reset(as_text);
  } else {
    next = std::make_unique<TextData>();
    std::string header = "From: " + message.from + "\n";
    next->SetText(header + message.body);
  }
  body_view_.SetText(nullptr);
  body_data_ = std::move(next);
  body_view_.SetText(body_data_.get());
  frame_.SetMessage(message.subject);
  RefreshFolderList();
}

// ---- Composer ---------------------------------------------------------------

namespace {

// To/Subject single-line fields over the body editor.
class ComposeLayoutView : public View {
 public:
  static constexpr int kFieldHeight = 16;

  void Layout() override {
    if (graphic() == nullptr || children().size() < 5) {
      return;
    }
    Rect b = graphic()->LocalBounds();
    int label_w = 60;
    children()[0]->Allocate(Rect{0, 0, label_w, kFieldHeight}, graphic());
    children()[1]->Allocate(Rect{label_w, 0, b.width - label_w, kFieldHeight}, graphic());
    children()[2]->Allocate(Rect{0, kFieldHeight, label_w, kFieldHeight}, graphic());
    children()[3]->Allocate(Rect{label_w, kFieldHeight, b.width - label_w, kFieldHeight},
                            graphic());
    int body_y = 2 * kFieldHeight + 2;
    children()[4]->Allocate(Rect{0, body_y, b.width, b.height - body_y}, graphic());
  }

  void FullUpdate() override {
    Graphic* g = graphic();
    if (g == nullptr) {
      return;
    }
    // The fields and the body paint themselves; the layout owns the blank
    // row under the fields and the rule below it.
    g->EraseRect(Rect{0, 2 * kFieldHeight, g->width(), 1});
    g->SetForeground(kGray);
    g->DrawLine(Point{0, 2 * kFieldHeight + 1}, Point{g->width() - 1, 2 * kFieldHeight + 1});
  }
};

}  // namespace

MessagesApp::Composer::Composer(MessagesApp* app)
    : app_(app), to_label_("To:"), subject_label_("Subject:") {
  to_view_.SetText(&to_);
  subject_view_.SetText(&subject_);
  body_view_.SetText(&body_);
  auto layout = std::make_unique<ComposeLayoutView>();
  layout->AddChild(&to_label_);
  layout->AddChild(&to_view_);
  layout->AddChild(&subject_label_);
  layout->AddChild(&subject_view_);
  layout->AddChild(&body_view_);
  compose_layout_ = std::move(layout);
  frame_.SetBody(compose_layout_.get());
  frame_.SetMessage("compose");
}

std::unique_ptr<InteractionManager> MessagesApp::Composer::OpenWindow(WindowSystem& ws) {
  auto im = InteractionManager::Create(ws, 520, 360, "compose");
  im->SetChild(&frame_);
  im->SetInputFocus(&to_view_);
  return im;
}

bool MessagesApp::Composer::Send(const std::string& folder) {
  MailMessage message;
  message.from = "user@andrew";
  message.to = to_.GetAllText();
  message.subject = subject_.GetAllText();
  message.body = WriteDocument(body_);
  bool delivered = app_->store().Deliver(folder, std::move(message));
  frame_.SetMessage(delivered ? "message sent" : "not mailable");
  if (delivered) {
    app_->RefreshFolderList();
  }
  return delivered;
}

std::unique_ptr<MessagesApp::Composer> MessagesApp::NewComposer() {
  return std::make_unique<Composer>(this);
}

void RegisterMessagesAppModule() {
  static bool done = [] {
    ModuleSpec spec;
    spec.name = "app-messages";
    spec.provides = {"messagesapp"};
    spec.depends_on = {"text", "scroll", "frame", "widgets"};
    spec.text_bytes = 64 * 1024;
    spec.data_bytes = 6 * 1024;
    spec.init = [] { ClassRegistry::Instance().Register(MessagesApp::StaticClassInfo()); };
    return Loader::Instance().DeclareModule(std::move(spec));
  }();
  (void)done;
}

}  // namespace atk
