// Tests for the applications: EZ, messages (reading + compose), help,
// typescript, console, preview, the filter extension package, and runapp.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/apps/console_app.h"
#include "src/apps/ez_app.h"
#include "src/apps/help_app.h"
#include "src/apps/messages_app.h"
#include "src/apps/preview_app.h"
#include "src/apps/standard_modules.h"
#include "src/apps/typescript_app.h"
#include "src/class_system/loader.h"
#include "src/components/table/table_data.h"
#include "src/workload/workload.h"

namespace atk {
namespace {

class AppTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterStandardModules();
    Loader::Instance().Require("text");
    Loader::Instance().Require("scroll");
    Loader::Instance().Require("frame");
    Loader::Instance().Require("widgets");
    ws_ = WindowSystem::Open("itc");
    ASSERT_NE(ws_, nullptr);
  }
  std::unique_ptr<WindowSystem> ws_;
};

// ---- EZ ---------------------------------------------------------------------

TEST_F(AppTest, EzEditsAndRendersText) {
  EzApp ez;
  std::unique_ptr<InteractionManager> im = ez.Start(*ws_, {"ez"});
  ASSERT_NE(im, nullptr);
  im->RunOnce();
  for (char ch : std::string("Dear David,")) {
    im->window()->Inject(InputEvent::KeyPress(ch));
  }
  im->RunOnce();
  EXPECT_EQ(ez.document()->GetAllText(), "Dear David,");
  EXPECT_GT(im->window()->Display().DiffCount(PixelImage(560, 400, kWhite)), 100);
}

TEST_F(AppTest, EzInsertMenuEmbedsComponentsViaDynamicLoading) {
  Loader::Instance().UnloadAllForTest();
  EzApp ez;
  std::unique_ptr<InteractionManager> im = ez.Start(*ws_, {"ez"});
  im->RunOnce();
  EXPECT_FALSE(Loader::Instance().IsLoaded("table"));
  // The Insert menu exists without the table module being loaded...
  MenuList menus = im->ComposeMenus();
  ASSERT_NE(menus.Find("Insert~Table"), nullptr);
  // ...and invoking it loads the module on demand (§1's extension story).
  EXPECT_TRUE(im->InvokeMenu("Insert~Table"));
  EXPECT_TRUE(Loader::Instance().IsLoaded("table"));
  ASSERT_EQ(ez.document()->embedded_count(), 1u);
  EXPECT_EQ(ez.document()->embedded_objects()[0].data->DataTypeName(), "table");
  im->RunOnce();
  // A spread view child now lives inside the text view.
  ASSERT_FALSE(ez.text_view()->children().empty());
  EXPECT_TRUE(ez.text_view()->children()[0]->IsA("tableview"));
}

TEST_F(AppTest, EzSaveAndReopenFile) {
  std::string path = "/tmp/atk_ez_test_doc.d";
  {
    EzApp ez;
    std::unique_ptr<InteractionManager> im = ez.Start(*ws_, {"ez"});
    ez.text_view()->InsertText("compound document\n");
    ez.InsertComponent("table");
    ASSERT_TRUE(ez.SaveFile(path));
  }
  {
    EzApp ez;
    std::unique_ptr<InteractionManager> im = ez.Start(*ws_, {"ez", path});
    EXPECT_NE(ez.document()->GetAllText().find("compound document"), std::string::npos);
    EXPECT_EQ(ez.document()->embedded_count(), 1u);
    im->RunOnce();
  }
  std::remove(path.c_str());
}

TEST_F(AppTest, EzOpensPlainTextGracefully) {
  std::string path = "/tmp/atk_ez_plain.txt";
  {
    std::ofstream out(path);
    out << "just plain text\nno markers\n";
  }
  EzApp ez;
  std::unique_ptr<InteractionManager> im = ez.Start(*ws_, {"ez", path});
  EXPECT_EQ(ez.document()->GetAllText(), "just plain text\nno markers\n");
  std::remove(path.c_str());
}

TEST_F(AppTest, EzWrapsBareComponentDocuments) {
  // Opening a file whose root is a table: EZ wraps it in text.
  Loader::Instance().Require("table");
  TableData table;
  table.Resize(2, 2);
  table.SetNumber(0, 0, 7);
  EzApp ez;
  std::unique_ptr<InteractionManager> im = ez.Start(*ws_, {"ez"});
  ASSERT_TRUE(ez.LoadDocumentString(WriteDocument(table)));
  ASSERT_EQ(ez.document()->embedded_count(), 1u);
  TableData* embedded = ObjectCast<TableData>(ez.document()->embedded_objects()[0].data.get());
  ASSERT_NE(embedded, nullptr);
  EXPECT_DOUBLE_EQ(embedded->Value(0, 0), 7);
}

// ---- Filter package (dynamic extension) ------------------------------------------

TEST_F(AppTest, FilterPackageLoadsOnFirstInvocation) {
  Loader::Instance().UnloadAllForTest();
  EzApp ez;
  std::unique_ptr<InteractionManager> im = ez.Start(*ws_, {"ez"});
  ez.text_view()->InsertText("hello filters");
  ez.text_view()->SetDot(0, 5);
  EXPECT_FALSE(Loader::Instance().IsLoaded("proc:filter"));
  // Invoking the menu command loads the dormant module, then runs it.
  EXPECT_TRUE(im->InvokeMenu("Region~Upcase"));
  EXPECT_TRUE(Loader::Instance().IsLoaded("proc:filter"));
  EXPECT_EQ(ez.document()->GetAllText(), "HELLO filters");
}

TEST_F(AppTest, FilterSortLines) {
  Loader::Instance().Require("proc:filter");
  EzApp ez;
  std::unique_ptr<InteractionManager> im = ez.Start(*ws_, {"ez"});
  ez.text_view()->InsertText("pear\napple\nmango\n");
  ez.text_view()->SetDot(0, ez.document()->size());
  EXPECT_TRUE(im->InvokeMenu("Region~Sort Lines"));
  EXPECT_EQ(ez.document()->GetAllText(), "apple\nmango\npear\n");
}

// ---- Messages ----------------------------------------------------------------------

TEST_F(AppTest, MessagesReadingWindowFlow) {
  MessagesApp app;
  WorkloadRng rng(7);
  GenerateMailbox(rng, app.store(), 3, 4, 0.5);
  std::unique_ptr<InteractionManager> im = app.Start(*ws_, {"messages"});
  im->RunOnce();
  EXPECT_GE(app.folder_list()->items().size(), 3u);
  // Select a folder: captions appear.
  app.folder_list()->Select(2);
  im->RunOnce();
  EXPECT_EQ(app.caption_list()->items().size(), 4u);
  // Select a message: body is parsed and displayed; new flag clears.
  app.caption_list()->Select(0);
  im->RunOnce();
  EXPECT_GT(app.body_view()->text()->size(), 0);
  MailFolder* folder = app.store().FindFolder(app.current_folder());
  ASSERT_NE(folder, nullptr);
  EXPECT_FALSE(folder->messages[0].is_new);
}

TEST_F(AppTest, MessageWithEmbeddedDrawingDisplaysIt) {
  // Snapshot 3: "the message being displayed contains a drawing within the
  // text of the message."
  Loader::Instance().Require("drawing");
  MessagesApp app;
  TextData body;
  body.SetText("see the attached figure:\n");
  auto drawing = std::make_unique<DrawData>();
  drawing->AddRect(Rect{2, 2, 40, 20});
  body.InsertObject(body.size(), std::move(drawing));
  MailMessage message;
  message.from = "nsb@andrew";
  message.subject = "The big picture";
  message.body = WriteDocument(body);
  ASSERT_TRUE(app.store().Deliver("mail", std::move(message)));
  std::unique_ptr<InteractionManager> im = app.Start(*ws_, {"messages"});
  im->RunOnce();
  app.folder_list()->Select(0);  // "mail" is first.
  im->RunOnce();
  app.caption_list()->Select(0);
  im->RunOnce();
  ASSERT_NE(app.body_view()->text(), nullptr);
  EXPECT_EQ(app.body_view()->text()->embedded_count(), 1u);
  ASSERT_FALSE(app.body_view()->children().empty());
  EXPECT_TRUE(app.body_view()->children()[0]->IsA("drawview"));
}

TEST_F(AppTest, ComposeAndSendWithRaster) {
  // Snapshot 4: a raster image in a composed message.
  Loader::Instance().Require("raster");
  MessagesApp app;
  std::unique_ptr<InteractionManager> reader_im = app.Start(*ws_, {"messages"});
  auto composer = app.NewComposer();
  std::unique_ptr<InteractionManager> compose_im = composer->OpenWindow(*ws_);
  compose_im->RunOnce();
  composer->to().SetText("palay@andrew");
  composer->subject().SetText("Big Cat");
  composer->body().SetText("Knowing your fondness for big cats...\n");
  WorkloadRng rng(3);
  composer->body().InsertObject(composer->body().size(), GenerateRaster(rng, 16, 12));
  ASSERT_TRUE(composer->Send("mail"));
  MailFolder* folder = app.store().FindFolder("mail");
  ASSERT_NE(folder, nullptr);
  ASSERT_EQ(folder->messages.size(), 1u);
  const MailMessage& delivered = folder->messages[0];
  EXPECT_EQ(delivered.subject, "Big Cat");
  // The wire form is mailable and contains the raster block (§5).
  EXPECT_TRUE(MailStore::IsMailable(delivered.body));
  EXPECT_NE(delivered.body.find("\\begindata{raster,"), std::string::npos);
  // Reading it back reproduces the raster.
  ReadContext ctx;
  std::unique_ptr<DataObject> parsed = ReadDocument(delivered.body, &ctx);
  TextData* parsed_text = ObjectCast<TextData>(parsed.get());
  ASSERT_NE(parsed_text, nullptr);
  ASSERT_EQ(parsed_text->embedded_count(), 1u);
  RasterData* raster = ObjectCast<RasterData>(parsed_text->embedded_objects()[0].data.get());
  ASSERT_NE(raster, nullptr);
  EXPECT_GT(raster->Population(), 0);
}

TEST_F(AppTest, UnmailableBodyIsRejected) {
  MessagesApp app;
  MailMessage message;
  message.body = std::string("raw\x80高bits");
  EXPECT_FALSE(app.store().Deliver("mail", std::move(message)));
}

// ---- Help --------------------------------------------------------------------------

TEST_F(AppTest, HelpTopicsListAndDisplay) {
  HelpApp app;
  std::unique_ptr<InteractionManager> im = app.Start(*ws_, {"help"});
  im->RunOnce();
  EXPECT_GE(app.TopicNames().size(), 6u);
  EXPECT_TRUE(app.ShowTopic("messages"));
  EXPECT_EQ(app.current_topic(), "messages");
  EXPECT_NE(app.doc_view()->text()->GetAllText().find("folders"), std::string::npos);
  EXPECT_FALSE(app.ShowTopic("no-such-topic"));
  EXPECT_EQ(app.current_topic(), "messages");  // Unchanged.
}

TEST_F(AppTest, HelpSearchFindsByNameAndBody) {
  HelpApp app;
  std::vector<std::string> hits = app.Search("SPREADSHEET");
  EXPECT_TRUE(hits.empty());
  hits = app.Search("scroll bars");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], "toolkit");
  hits = app.Search("ez");
  EXPECT_GE(hits.size(), 1u);
}

TEST_F(AppTest, HelpIndexClickShowsTopic) {
  HelpApp app;
  std::unique_ptr<InteractionManager> im = app.Start(*ws_, {"help"});
  im->RunOnce();
  int row = 0;
  for (const std::string& name : app.index_list()->items()) {
    if (name == "printing") {
      break;
    }
    ++row;
  }
  app.index_list()->Select(row);
  im->RunOnce();
  EXPECT_EQ(app.current_topic(), "printing");
}

TEST_F(AppTest, HelpDocumentsMayEmbedComponents) {
  Loader::Instance().Require("drawing");
  HelpApp app;
  TextData doc;
  doc.SetText("The view tree:\n");
  auto drawing = std::make_unique<DrawData>();
  drawing->AddRect(Rect{0, 0, 60, 30});
  drawing->AddLine(Point{30, 30}, Point{30, 50});
  doc.InsertObject(doc.size(), std::move(drawing));
  app.AddTopic("view tree", WriteDocument(doc));
  std::unique_ptr<InteractionManager> im = app.Start(*ws_, {"help", "view tree"});
  im->RunOnce();
  EXPECT_EQ(app.doc_view()->text()->embedded_count(), 1u);
}

// ---- Typescript --------------------------------------------------------------------------

TEST_F(AppTest, TypescriptExecutesCommands) {
  TypescriptApp app;
  std::unique_ptr<InteractionManager> im = app.Start(*ws_, {"typescript"});
  im->RunOnce();
  std::string out = app.view()->RunCommand("echo hello world");
  EXPECT_EQ(out, "hello world\n");
  out = app.view()->RunCommand("ls");
  EXPECT_NE(out.find("readme"), std::string::npos);
  out = app.view()->RunCommand("cat readme");
  EXPECT_NE(out.find("Welcome"), std::string::npos);
  out = app.view()->RunCommand("frobnicate");
  EXPECT_EQ(out, "frobnicate: Command not found.\n");
  // The transcript accumulated everything.
  std::string transcript = app.transcript()->GetAllText();
  EXPECT_NE(transcript.find("% echo hello world"), std::string::npos);
  EXPECT_NE(transcript.find("hello world"), std::string::npos);
}

TEST_F(AppTest, TypescriptKeyboardFlow) {
  TypescriptApp app;
  std::unique_ptr<InteractionManager> im = app.Start(*ws_, {"typescript"});
  im->RunOnce();
  for (char ch : std::string("date\r")) {
    im->window()->Inject(InputEvent::KeyPress(ch));
  }
  im->RunOnce();
  EXPECT_NE(app.transcript()->GetAllText().find("1988"), std::string::npos);
  EXPECT_EQ(app.shell().history().back(), "date");
  // Backspace cannot erase the prompt.
  im->window()->Inject(InputEvent::KeyPress('\177'));
  im->window()->Inject(InputEvent::KeyPress('\177'));
  im->RunOnce();
  std::string transcript = app.transcript()->GetAllText();
  EXPECT_EQ(transcript.substr(transcript.size() - 2), "% ");
}

// ---- Console ----------------------------------------------------------------------------------

TEST_F(AppTest, ConsoleRendersStatsAndUpdates) {
  ConsoleApp app;
  std::unique_ptr<InteractionManager> im = app.Start(*ws_, {"console"});
  im->RunOnce();
  uint64_t before = im->window()->Display().Hash();
  ConsoleSample sample;
  sample.hour = 14;
  sample.minute = 45;
  sample.cpu_load = 0.9;
  sample.filesystems = {{"/", 0.3}};
  app.data().Update(sample);
  im->RunOnce();
  EXPECT_NE(im->window()->Display().Hash(), before);
  EXPECT_EQ(app.data().load_history().back(), 0.9);
}

TEST_F(AppTest, ConsoleLoadHistoryIsBounded) {
  ConsoleApp app;
  for (int i = 0; i < 100; ++i) {
    ConsoleSample sample;
    sample.cpu_load = i / 100.0;
    app.data().Update(sample);
  }
  EXPECT_EQ(app.data().load_history().size(), ConsoleData::kLoadHistory);
  EXPECT_DOUBLE_EQ(app.data().load_history().back(), 0.99);
}

// ---- Preview -------------------------------------------------------------------------------------

TEST_F(AppTest, TroffTranslationStylesText) {
  std::string troff =
      ".ce 1\nThe Andrew Toolkit\n.sp 1\n.B\nbold paragraph here\n.R\nplain again\n"
      ".I italic line\nrest\n";
  std::unique_ptr<TextData> text = TroffToText(troff);
  std::string content = text->GetAllText();
  EXPECT_NE(content.find("The Andrew Toolkit"), std::string::npos);
  // Centered heading.
  int64_t title_pos = static_cast<int64_t>(content.find("The Andrew Toolkit"));
  EXPECT_EQ(text->StyleNameAt(title_pos), "center");
  int64_t bold_pos = static_cast<int64_t>(content.find("bold paragraph"));
  EXPECT_EQ(text->StyleNameAt(bold_pos), "bold");
  int64_t plain_pos = static_cast<int64_t>(content.find("plain again"));
  EXPECT_EQ(text->StyleNameAt(plain_pos), "default");
  int64_t italic_pos = static_cast<int64_t>(content.find("italic line"));
  EXPECT_EQ(text->StyleNameAt(italic_pos), "italic");
}

TEST_F(AppTest, PreviewShowsPagedDocument) {
  PreviewApp app;
  app.LoadTroff(".ce 1\nTitle\n.sp 2\nbody text follows here\n");
  std::unique_ptr<InteractionManager> im = app.Start(*ws_, {"preview"});
  im->RunOnce();
  // The paged view's desk chrome is visible.
  EXPECT_EQ(im->window()->Display().GetPixel(ScrollBarView::kBarWidth + 3, 30), kLightGray);
  EXPECT_GE(app.page_view()->PageCount(), 1);
}

// ---- Paint contract ------------------------------------------------------------------------------

// A full update must paint every pixel of the window (view.h's paint
// contract): the frame and the app layouts paint only their dividers and
// gaps and leave each pane to its view.  The canvas is first filled with a
// sentinel colour no view draws, so a pixel no view painted still shows it.
// Golden hashes repaint over white and cannot see such a pixel.
int64_t SentinelPixelsAfterFullUpdate(InteractionManager& im) {
  const Color sentinel{1, 2, 3};
  im.RunOnce();
  Graphic* g = im.window()->GetGraphic();
  g->FillRect(g->LocalBounds(), sentinel);
  im.PostUpdate();
  im.RunUpdateCycle();
  im.window()->Flush();
  const PixelImage& shown = im.window()->Display();
  int64_t left = 0;
  for (int y = 0; y < shown.height(); ++y) {
    for (int x = 0; x < shown.width(); ++x) {
      left += shown.GetPixel(x, y) == sentinel ? 1 : 0;
    }
  }
  return left;
}

TEST_F(AppTest, EveryAppWindowIsOpaqueAfterAFullUpdate) {
  Loader::Instance().Require("drawing");
  for (const char* backend : {"itc", "x11"}) {
    std::unique_ptr<WindowSystem> ws = WindowSystem::Open(backend);
    ASSERT_NE(ws, nullptr) << backend;
    {
      EzApp ez;
      std::unique_ptr<InteractionManager> im = ez.Start(*ws, {"ez"});
      WorkloadRng gen(4);
      ASSERT_TRUE(ez.LoadDocumentString(WriteDocument(*GenerateDocument(gen, 24))));
      EXPECT_EQ(SentinelPixelsAfterFullUpdate(*im), 0) << backend << " ez";
    }
    {
      HelpApp help;
      std::unique_ptr<InteractionManager> im = help.Start(*ws, {"help"});
      ASSERT_TRUE(help.ShowTopic("messages"));
      EXPECT_EQ(SentinelPixelsAfterFullUpdate(*im), 0) << backend << " help";
    }
    {
      MessagesApp messages;
      WorkloadRng rng(7);
      GenerateMailbox(rng, messages.store(), 3, 4, 0.5);
      std::unique_ptr<InteractionManager> im = messages.Start(*ws, {"messages"});
      im->RunOnce();
      messages.caption_list()->Select(0);
      EXPECT_EQ(SentinelPixelsAfterFullUpdate(*im), 0) << backend << " messages";
      auto composer = messages.NewComposer();
      std::unique_ptr<InteractionManager> compose_im = composer->OpenWindow(*ws);
      composer->to().SetText("palay@andrew");
      composer->body().SetText("Knowing your fondness for big cats...\n");
      EXPECT_EQ(SentinelPixelsAfterFullUpdate(*compose_im), 0) << backend << " compose";
    }
    {
      PreviewApp preview;
      preview.LoadTroff(".ce 1\nTitle\n.sp 2\nbody text follows here\n");
      std::unique_ptr<InteractionManager> im = preview.Start(*ws, {"preview"});
      EXPECT_EQ(SentinelPixelsAfterFullUpdate(*im), 0) << backend << " preview";
    }
    {
      TypescriptApp typescript;
      std::unique_ptr<InteractionManager> im = typescript.Start(*ws, {"typescript"});
      typescript.view()->RunCommand("ls");
      EXPECT_EQ(SentinelPixelsAfterFullUpdate(*im), 0) << backend << " typescript";
    }
  }
}

// ---- runapp over the real application modules ------------------------------------------------------

TEST_F(AppTest, RunAppStartsEveryStandardApplication) {
  for (const char* name : {"ez", "messages", "help", "typescript", "console", "preview"}) {
    std::unique_ptr<InteractionManager> im = RunApp(name, *ws_);
    ASSERT_NE(im, nullptr) << name;
    im->RunOnce();
    EXPECT_TRUE(Loader::Instance().IsLoaded(std::string("app-") + name));
    // Every app rendered something.
    Size size = im->window()->size();
    EXPECT_GT(im->window()->Display().DiffCount(PixelImage(size.width, size.height, kWhite)),
              10)
        << name;
  }
}

}  // namespace
}  // namespace atk
