#include "src/apps/help_app.h"

#include <algorithm>
#include <cctype>

#include "src/class_system/loader.h"

namespace atk {

ATK_DEFINE_CLASS(HelpLayoutView, View, "helplayout")
ATK_DEFINE_CLASS(HelpApp, Application, "helpapp")

void HelpLayoutView::Layout() {
  if (graphic() == nullptr || children().size() < 2) {
    return;
  }
  Rect b = graphic()->LocalBounds();
  int index_w = std::min(kIndexWidth, b.width / 3);
  // Snapshot 2: the document fills the left, the topic index sits right.
  children()[0]->Allocate(Rect{0, 0, b.width - index_w - 1, b.height}, graphic());
  children()[1]->Allocate(Rect{b.width - index_w, 0, index_w, b.height}, graphic());
}

void HelpLayoutView::FullUpdate() {
  Graphic* g = graphic();
  if (g == nullptr) {
    return;
  }
  // The document and the index paint their own panes; the layout owns only
  // the rule between them.
  Rect b = g->LocalBounds();
  int index_w = std::min(kIndexWidth, b.width / 3);
  g->SetForeground(kBlack);
  g->DrawLine(Point{b.width - index_w - 1, 0}, Point{b.width - index_w - 1, b.height - 1});
}

HelpApp::HelpApp() : doc_data_(std::make_unique<TextData>()) {
  doc_view_.SetText(doc_data_.get());
  doc_scroll_.SetBody(&doc_view_);
  layout_.AddChild(&doc_scroll_);
  layout_.AddChild(&index_);
  frame_.SetBody(&layout_);
  index_.SetOnSelect([this](int i) {
    if (const std::string* item = index_.SelectedItem()) {
      ShowTopic(*item);
    }
    (void)i;
  });
  LoadBuiltinTopics();
}

HelpApp::~HelpApp() = default;

std::unique_ptr<InteractionManager> HelpApp::Start(WindowSystem& ws,
                                                   const std::vector<std::string>& args) {
  auto im = InteractionManager::Create(ws, 620, 420, "help");
  im->SetChild(&frame_);
  std::vector<std::string> names = TopicNames();
  index_.SetItems(names);
  if (args.size() > 1) {
    ShowTopic(args[1]);
  } else if (!names.empty()) {
    ShowTopic(names.front());
  }
  return im;
}

void HelpApp::AddTopic(const std::string& name, const std::string& document) {
  topics_[name] = document;
  index_.SetItems(TopicNames());
}

std::vector<std::string> HelpApp::TopicNames() const {
  std::vector<std::string> names;
  names.reserve(topics_.size());
  for (const auto& [name, body] : topics_) {
    names.push_back(name);
  }
  return names;
}

bool HelpApp::ShowTopic(const std::string& name) {
  auto it = topics_.find(name);
  if (it == topics_.end()) {
    frame_.SetMessage("no help for " + name);
    return false;
  }
  current_topic_ = name;
  ReadContext ctx;
  std::unique_ptr<DataObject> root = ReadDocument(it->second, &ctx);
  std::unique_ptr<TextData> next;
  if (TextData* as_text = ObjectCast<TextData>(root.get())) {
    root.release();
    next.reset(as_text);
  } else {
    next = std::make_unique<TextData>();
    next->SetText(it->second);
  }
  doc_view_.SetText(nullptr);
  doc_data_ = std::move(next);
  doc_view_.SetText(doc_data_.get());
  frame_.SetMessage("help: " + name);
  return true;
}

std::vector<std::string> HelpApp::Search(const std::string& query) const {
  auto lower = [](std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
    return s;
  };
  std::string needle = lower(query);
  std::vector<std::string> hits;
  for (const auto& [name, body] : topics_) {
    if (lower(name).find(needle) != std::string::npos ||
        lower(body).find(needle) != std::string::npos) {
      hits.push_back(name);
    }
  }
  return hits;
}

void HelpApp::LoadBuiltinTopics() {
  topics_["ez"] =
      "EZ: A Document Editor\n\nEZ is an editing program that you can use to "
      "create, edit, and format many different types of documents.\n\nUse the "
      "Insert menu to embed tables, drawings, equations, rasters and "
      "animations.\nChanges made in one window are reflected in the other.\n";
  topics_["messages"] =
      "Messages\n\nThe messages program reads and sends mail.  The panel on "
      "the left lists message folders; the top panel lists the messages in "
      "the selected folder.\nMulti-media content travels in ordinary mail.\n";
  topics_["printing"] =
      "Printing Documents\n\nChoose Print from the File menu.  A view prints "
      "by temporarily shifting its drawable to the printer and redrawing.\n";
  topics_["typescript"] =
      "Typescript\n\nTypescript provides an enhanced interface to the shell: "
      "a full editable transcript of your session.\n";
  topics_["console"] =
      "Console\n\nThe console displays status information such as the time, "
      "date, CPU load and file system usage.\n";
  topics_["toolkit"] =
      "The Andrew Toolkit\n\nThe toolkit lets programmers piece together "
      "components such as text, buttons and scroll bars, and embed components "
      "inside other components: a table inside text, a drawing inside a "
      "table.\n";
}

void RegisterHelpAppModule() {
  static bool done = [] {
    ModuleSpec spec;
    spec.name = "app-help";
    spec.provides = {"helpapp"};
    spec.depends_on = {"text", "scroll", "frame", "widgets"};
    spec.text_bytes = 36 * 1024;
    spec.data_bytes = 12 * 1024;
    spec.init = [] { ClassRegistry::Instance().Register(HelpApp::StaticClassInfo()); };
    return Loader::Instance().DeclareModule(std::move(spec));
  }();
  (void)done;
}

}  // namespace atk
