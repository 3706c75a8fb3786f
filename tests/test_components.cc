// Tests for the remaining components: drawing (including the §3
// line-over-text case), equation, raster and animation.

#include <gtest/gtest.h>

#include <sstream>

#include "src/apps/standard_modules.h"
#include "src/base/interaction_manager.h"
#include "src/class_system/loader.h"
#include "src/components/animation/anim_view.h"
#include "src/components/drawing/draw_view.h"
#include "src/components/equation/eq_view.h"
#include "src/components/raster/raster_view.h"
#include "src/components/scroll/scrollbar_view.h"
#include "src/components/frame/frame_view.h"
#include "src/components/text/text_view.h"
#include "src/components/widgets/widgets.h"
#include "src/wm/window_system.h"

namespace atk {
namespace {

// A plain solid view for hosting inside frames.
class BlockHost : public View {
 public:
  void FullUpdate() override {
    if (graphic() != nullptr) {
      graphic()->FillRect(graphic()->LocalBounds(), kLightGray);
    }
  }
};

class ComponentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterStandardModules();
    Loader& loader = Loader::Instance();
    loader.Require("drawing");
    loader.Require("equation");
    loader.Require("raster");
    loader.Require("animation");
    loader.Require("widgets");
    loader.Require("scroll");
    loader.Require("frame");
    ws_ = WindowSystem::Open("itc");
    im_ = InteractionManager::Create(*ws_, 300, 200, "components");
  }
  void Pump() { im_->RunOnce(); }
  void Click(Point p) {
    im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseDown, p));
    im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseUp, p));
    Pump();
  }

  std::unique_ptr<WindowSystem> ws_;
  std::unique_ptr<InteractionManager> im_;
};

// ---- Drawing ----------------------------------------------------------------

TEST_F(ComponentTest, DrawDataShapesAndHitTesting) {
  DrawData drawing;
  int line = drawing.AddLine(Point{10, 10}, Point{100, 10});
  int rect = drawing.AddRect(Rect{20, 40, 40, 30});
  EXPECT_EQ(drawing.shape_count(), 2);
  EXPECT_EQ(drawing.ShapeAt(Point{50, 10}), line);
  EXPECT_EQ(drawing.ShapeAt(Point{50, 12}), line);  // Within slop.
  EXPECT_EQ(drawing.ShapeAt(Point{20, 55}), rect);  // On the border.
  EXPECT_EQ(drawing.ShapeAt(Point{40, 55}), -1);    // Hollow interior.
  EXPECT_EQ(drawing.ShapeAt(Point{200, 200}), -1);
  drawing.MoveShape(line, 0, 50);
  EXPECT_EQ(drawing.ShapeAt(Point{50, 60}), line);
  drawing.RemoveShape(line);
  EXPECT_EQ(drawing.shape_count(), 1);
}

TEST_F(ComponentTest, DrawingLineOverTextParentalAuthority) {
  // §3's motivating case: text inside a drawing, a line drawn over it.
  DrawData drawing;
  drawing.AddText(Rect{10, 10, 120, 40}, "hello inside drawing");
  int line = drawing.AddLine(Point{0, 25}, Point{200, 25});  // Crosses the text.
  DrawView view;
  view.SetDataObject(&drawing);
  im_->SetChild(&view);
  Pump();
  // Click ON the line (even though it is over the text box): the drawing
  // decides — the line is selected, the text does not get the event.
  Click(Point{60, 25});
  EXPECT_EQ(view.selected_shape(), line);
  EXPECT_NE(im_->input_focus(), nullptr);
  // Click inside the text but away from the line: the text view gets it.
  Click(Point{40, 14});
  ASSERT_EQ(view.children().size(), 1u);
  View* text_child = view.children()[0];
  EXPECT_TRUE(text_child->IsA("textview"));
  EXPECT_EQ(im_->input_focus(), text_child);
  view.SetDataObject(nullptr);
}

TEST_F(ComponentTest, DrawingLineOverTextFailsUnderGlobalDispatch) {
  // The same clicks under the Base Editor's global/physical model: the text
  // rectangle is deeper, so it steals the click meant for the line — the
  // behaviour the paper says was "impossible to accomplish".
  DrawData drawing;
  drawing.AddText(Rect{10, 10, 120, 40}, "hello inside drawing");
  int line = drawing.AddLine(Point{0, 25}, Point{200, 25});
  DrawView view;
  view.SetDataObject(&drawing);
  im_->SetChild(&view);
  im_->SetDispatchMode(InteractionManager::DispatchMode::kGlobalPhysical);
  Pump();
  Click(Point{60, 25});
  EXPECT_NE(view.selected_shape(), line);  // The drawing never saw it.
  view.SetDataObject(nullptr);
}

TEST_F(ComponentTest, DrawingRoundTripsThroughDatastream) {
  DrawData drawing;
  drawing.AddLine(Point{1, 2}, Point{30, 40}, 2);
  drawing.AddRect(Rect{5, 6, 20, 10}, true);
  drawing.AddEllipse(Rect{0, 0, 9, 9});
  drawing.AddPolyline({{0, 0}, {5, 5}, {10, 0}});
  drawing.AddText(Rect{2, 2, 50, 12}, "label text");
  ReadContext ctx;
  std::unique_ptr<DataObject> read = ReadDocument(WriteDocument(drawing), &ctx);
  DrawData* back = ObjectCast<DrawData>(read.get());
  ASSERT_NE(back, nullptr);
  ASSERT_EQ(back->shape_count(), 5);
  EXPECT_EQ(back->shape(0).kind, DrawData::ShapeKind::kLine);
  EXPECT_EQ(back->shape(0).points[1], (Point{30, 40}));
  EXPECT_EQ(back->shape(0).line_width, 2);
  EXPECT_TRUE(back->shape(1).filled);
  EXPECT_EQ(back->shape(3).points.size(), 3u);
  ASSERT_EQ(back->shape(4).kind, DrawData::ShapeKind::kText);
  ASSERT_NE(back->shape(4).text, nullptr);
  EXPECT_EQ(back->shape(4).text->GetAllText(), "label text");
  EXPECT_EQ(back->shape(4).box, (Rect{2, 2, 50, 12}));
}

TEST_F(ComponentTest, DrawViewDragMovesShape) {
  DrawData drawing;
  int rect = drawing.AddRect(Rect{20, 20, 30, 20});
  DrawView view;
  view.SetDataObject(&drawing);
  im_->SetChild(&view);
  Pump();
  im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseDown, Point{20, 30}));
  im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseDrag, Point{60, 50}));
  im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseUp, Point{60, 50}));
  Pump();
  EXPECT_EQ(drawing.shape(rect).box.origin(), (Point{60, 40}));
  view.SetDataObject(nullptr);
}

// ---- Equation ------------------------------------------------------------------

TEST_F(ComponentTest, EquationParsing) {
  bool ok = false;
  std::string error;
  EqNodePtr root = ParseEquation("a+b", &ok, &error);
  ASSERT_TRUE(ok) << error;
  ASSERT_EQ(root->kind, EqNode::Kind::kRow);
  EXPECT_EQ(root->children.size(), 3u);
  EXPECT_EQ(root->children[0]->symbol, "a");
  EXPECT_EQ(root->children[1]->symbol, "+");

  root = ParseEquation("x^{n+1}_i", &ok, &error);
  ASSERT_TRUE(ok) << error;
  const EqNode* script = root->children[0].get();
  ASSERT_EQ(script->kind, EqNode::Kind::kScript);
  EXPECT_EQ(script->first->symbol, "x");
  ASSERT_NE(script->sup, nullptr);
  ASSERT_NE(script->sub, nullptr);
  EXPECT_EQ(script->sup->children.size(), 3u);

  root = ParseEquation("\\frac{a+1}{b}", &ok, &error);
  ASSERT_TRUE(ok) << error;
  ASSERT_EQ(root->children[0]->kind, EqNode::Kind::kFrac);

  root = ParseEquation("\\sqrt{z}+\\pi", &ok, &error);
  ASSERT_TRUE(ok) << error;
  EXPECT_EQ(root->children[0]->kind, EqNode::Kind::kSqrt);
  EXPECT_EQ(root->children[2]->symbol, "pi");
}

TEST_F(ComponentTest, EquationParseErrorsAreReported) {
  bool ok = true;
  std::string error;
  ParseEquation("\\frac{a}", &ok, &error);
  EXPECT_FALSE(ok);
  ParseEquation("{unclosed", &ok, &error);
  EXPECT_FALSE(ok);
  ParseEquation("a}b", &ok, &error);
  EXPECT_FALSE(ok);
}

TEST_F(ComponentTest, EquationLayoutMetrics) {
  bool ok = false;
  std::string error;
  EqNodePtr simple = ParseEquation("x", &ok, &error);
  EqNodePtr frac = ParseEquation("\\frac{x}{y}", &ok, &error);
  EqView::Box simple_box = EqView::Measure(simple.get(), 12);
  EqView::Box frac_box = EqView::Measure(frac.get(), 12);
  // A fraction is taller than a symbol and its baseline sits lower.
  EXPECT_GT(frac_box.height, simple_box.height);
  EXPECT_GT(frac_box.baseline, simple_box.baseline);
  // Scripts shrink: x^2 is wider than x but not twice the height.
  EqNodePtr script = ParseEquation("x^2", &ok, &error);
  EqView::Box script_box = EqView::Measure(script.get(), 12);
  EXPECT_GT(script_box.width, simple_box.width);
  EXPECT_LT(script_box.height, 2 * simple_box.height);
}

TEST_F(ComponentTest, EquationRendersAndRoundTrips) {
  EqData eq;
  eq.SetSource("v_{i,j} = v_{i-1,j-1} + v_{i-1,j}");
  EXPECT_TRUE(eq.parse_ok());
  EqView view;
  view.SetDataObject(&eq);
  im_->SetChild(&view);
  Pump();
  EXPECT_GT(im_->window()->Display().DiffCount(PixelImage(300, 200, kWhite)), 30);
  ReadContext ctx;
  std::unique_ptr<DataObject> read = ReadDocument(WriteDocument(eq), &ctx);
  EqData* back = ObjectCast<EqData>(read.get());
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->source(), eq.source());
  EXPECT_TRUE(back->parse_ok());
  view.SetDataObject(nullptr);
}

// ---- Raster ------------------------------------------------------------------------

TEST_F(ComponentTest, RasterPixelsAndInvert) {
  RasterData raster(8, 4);
  EXPECT_EQ(raster.Population(), 0);
  raster.Set(0, 0, true);
  raster.Set(7, 3, true);
  raster.Set(8, 0, true);  // Out of bounds: ignored.
  EXPECT_EQ(raster.Population(), 2);
  EXPECT_TRUE(raster.Get(0, 0));
  EXPECT_FALSE(raster.Get(1, 1));
  raster.Invert();
  EXPECT_EQ(raster.Population(), 30);
}

TEST_F(ComponentTest, RasterExternalFormIsHexRowsUnder80Columns) {
  RasterData raster(64, 8);
  raster.Set(0, 0, true);
  raster.Set(63, 7, true);
  std::ostringstream out;
  DataStreamWriter writer(out);
  raster.Write(writer);
  // §5: rows begin on new lines, all 7-bit, lines comfortably under 80.
  EXPECT_TRUE(writer.all_seven_bit());
  EXPECT_LT(writer.max_line_length(), 80);
  std::string body = out.str();
  EXPECT_NE(body.find("\\rasterdim{64,8}"), std::string::npos);
  // 8 hex rows of 16 nibbles each.
  EXPECT_NE(body.find("8000000000000000"), std::string::npos);
  EXPECT_NE(body.find("0000000000000001"), std::string::npos);
}

TEST_F(ComponentTest, RasterRoundTripIsExact) {
  RasterData raster(33, 9);  // Non-multiple-of-4 width exercises padding.
  for (int y = 0; y < 9; ++y) {
    for (int x = 0; x < 33; ++x) {
      raster.Set(x, y, (x * 7 + y * 3) % 5 == 0);
    }
  }
  ReadContext ctx;
  std::unique_ptr<DataObject> read = ReadDocument(WriteDocument(raster), &ctx);
  RasterData* back = ObjectCast<RasterData>(read.get());
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->width(), 33);
  EXPECT_EQ(back->height(), 9);
  EXPECT_EQ(back->Population(), raster.Population());
  for (int y = 0; y < 9; ++y) {
    for (int x = 0; x < 33; ++x) {
      ASSERT_EQ(back->Get(x, y), raster.Get(x, y)) << x << "," << y;
    }
  }
}

TEST_F(ComponentTest, RasterImageConversionThreshold) {
  PixelImage image(4, 4, kWhite);
  image.FillRect(Rect{0, 0, 2, 4}, kBlack);
  RasterData raster;
  raster.FromImage(image);
  EXPECT_EQ(raster.Population(), 8);
  PixelImage round = raster.ToImage();
  EXPECT_EQ(round.GetPixel(0, 0), kBlack);
  EXPECT_EQ(round.GetPixel(3, 3), kWhite);
}

TEST_F(ComponentTest, RasterViewScalesAndPaints) {
  RasterData raster(8, 8);
  RasterView view;
  view.SetDataObject(&raster);
  im_->SetChild(&view);
  Pump();
  EXPECT_GE(view.Scale(), 2);  // 300x200 window: plenty of room to magnify.
  // Click toggles the pixel under the cursor.
  Click(Point{view.Scale() * 3 + 1, view.Scale() * 2 + 1});
  EXPECT_TRUE(raster.Get(3, 2));
  Click(Point{view.Scale() * 3 + 1, view.Scale() * 2 + 1});
  EXPECT_FALSE(raster.Get(3, 2));
  view.SetDataObject(nullptr);
}

// ---- Animation ----------------------------------------------------------------------

TEST_F(ComponentTest, AnimationFramesAccumulate) {
  AnimData anim;
  int f0 = anim.AddFrame();
  anim.AddRect(f0, Rect{0, 0, 5, 5});
  int f1 = anim.AddFrame(/*copy_previous=*/true);
  anim.AddRect(f1, Rect{10, 0, 5, 5});
  EXPECT_EQ(anim.frame_count(), 2);
  EXPECT_EQ(anim.frame(0).commands.size(), 1u);
  EXPECT_EQ(anim.frame(1).commands.size(), 2u);
}

TEST_F(ComponentTest, AnimViewPlaybackIsDeterministic) {
  AnimData anim;
  for (int i = 0; i < 3; ++i) {
    int f = anim.AddFrame();
    anim.AddRect(f, Rect{i * 10, 0, 5, 5});
  }
  AnimView view;
  view.SetDataObject(&anim);
  im_->SetChild(&view);
  Pump();
  EXPECT_EQ(view.current_frame(), 0);
  view.Tick();  // Not playing: no-op.
  EXPECT_EQ(view.current_frame(), 0);
  view.Play();
  view.Tick();
  EXPECT_EQ(view.current_frame(), 1);
  view.Tick();
  view.Tick();  // Wraps.
  EXPECT_EQ(view.current_frame(), 0);
  view.Stop();
  view.Tick();
  EXPECT_EQ(view.current_frame(), 0);
  view.SetDataObject(nullptr);
}

TEST_F(ComponentTest, AnimationMenusDriveProcTable) {
  AnimData anim;
  anim.AddFrame();
  anim.AddFrame();
  AnimView view;
  view.SetDataObject(&anim);
  im_->SetChild(&view);
  im_->SetInputFocus(&view);
  Pump();
  EXPECT_TRUE(im_->InvokeMenu("Animation~Animate"));
  EXPECT_TRUE(view.playing());
  view.Tick();
  EXPECT_EQ(view.current_frame(), 1);
  EXPECT_TRUE(im_->InvokeMenu("Animation~Rewind"));
  EXPECT_EQ(view.current_frame(), 0);
  view.SetDataObject(nullptr);
}

TEST_F(ComponentTest, AnimationRoundTrips) {
  AnimData anim;
  int f = anim.AddFrame();
  anim.AddLine(f, Point{1, 2}, Point{3, 4});
  anim.AddText(f, Point{5, 6}, "hi there");
  f = anim.AddFrame(true);
  anim.AddEllipse(f, Rect{0, 0, 10, 10});
  ReadContext ctx;
  std::unique_ptr<DataObject> read = ReadDocument(WriteDocument(anim), &ctx);
  AnimData* back = ObjectCast<AnimData>(read.get());
  ASSERT_NE(back, nullptr);
  ASSERT_EQ(back->frame_count(), 2);
  ASSERT_EQ(back->frame(0).commands.size(), 2u);
  EXPECT_EQ(back->frame(0).commands[1].text, "hi there");
  EXPECT_EQ(back->frame(1).commands.size(), 3u);
  EXPECT_EQ(back->frame(1).commands[2].kind, AnimData::Command::Kind::kEllipse);
}

// ---- Widgets ----------------------------------------------------------------------------

TEST_F(ComponentTest, ButtonInvokesActionOnClickInside) {
  ButtonView button("Send", "");
  int fired = 0;
  button.SetAction([&fired] { ++fired; });
  im_->SetChild(&button);
  Pump();
  Click(Point{50, 50});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(button.click_count(), 1);
  // Press inside, release outside: no fire.
  im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseDown, Point{50, 50}));
  im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseUp, Point{500, 500}));
  Pump();
  EXPECT_EQ(fired, 1);
}

TEST_F(ComponentTest, ListViewSelectionAndCallback) {
  ListView list;
  list.SetItems({"alpha", "beta", "gamma"});
  int last_selected = -1;
  list.SetOnSelect([&](int index) { last_selected = index; });
  im_->SetChild(&list);
  Pump();
  Click(Point{10, list.RowHeight() + 2});  // Second row.
  EXPECT_EQ(list.selected(), 1);
  EXPECT_EQ(last_selected, 1);
  ASSERT_NE(list.SelectedItem(), nullptr);
  EXPECT_EQ(*list.SelectedItem(), "beta");
  // Keyboard next/previous.
  im_->window()->Inject(InputEvent::KeyPress('n'));
  Pump();
  EXPECT_EQ(list.selected(), 2);
  im_->window()->Inject(InputEvent::KeyPress('p'));
  Pump();
  EXPECT_EQ(list.selected(), 1);
}

TEST_F(ComponentTest, ScrollBarElevatorTracksAndScrolls) {
  // A list long enough to scroll.
  ListView list;
  std::vector<std::string> items;
  for (int i = 0; i < 100; ++i) {
    items.push_back("item " + std::to_string(i));
  }
  list.SetItems(items);
  ScrollBarView scrollbar;
  scrollbar.SetBody(&list);
  im_->SetChild(&scrollbar);
  Pump();
  Rect elevator = scrollbar.ElevatorRect();
  ASSERT_FALSE(elevator.IsEmpty());
  EXPECT_LT(elevator.height, 200);  // Proportional, not full track.
  EXPECT_EQ(elevator.y, 1);         // At the top initially.
  // Click below the elevator: page down.
  im_->window()->Inject(
      InputEvent::MouseAt(EventType::kMouseDown, Point{5, elevator.bottom() + 20}));
  im_->window()->Inject(
      InputEvent::MouseAt(EventType::kMouseUp, Point{5, elevator.bottom() + 20}));
  Pump();
  EXPECT_GT(list.first_visible(), 0);
  Rect moved = scrollbar.ElevatorRect();
  EXPECT_GT(moved.y, elevator.y);
  // Events to the right of the bar go to the list.
  Click(Point{100, 3});
  EXPECT_EQ(list.selected(), static_cast<int>(list.first_visible()));
}

TEST_F(ComponentTest, FrameDividerDragAndDialog) {
  FrameView frame;
  BlockHost body;
  frame.SetBody(&body);
  im_->SetChild(&frame);
  Pump();
  int before = frame.divider();
  im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseDown, Point{50, before + 2}));
  im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseDrag, Point{50, before + 30}));
  im_->window()->Inject(InputEvent::MouseAt(EventType::kMouseUp, Point{50, before + 30}));
  Pump();
  EXPECT_EQ(frame.divider(), before + 30);
  // Dialog with scripted answer.
  frame.PushDialogAnswer("yes");
  EXPECT_EQ(frame.AskUser("Save changes?"), "yes");
  EXPECT_EQ(frame.last_prompt(), "Save changes?");
  // No scripted answer: fallback.
  EXPECT_EQ(frame.AskUser("Again?", "no"), "no");
}

// The paint contract (view.h) for containers that leave part of their
// allocation to no child: a frame with no body and a scroll bar with no
// body paint the empty area themselves, so a full update over a sentinel
// canvas leaves none of it.
TEST_F(ComponentTest, FramePaintsOnlyItsDividerRow) {
  const Color sentinel{1, 2, 3};
  FrameView frame;
  BlockHost body;
  frame.SetBody(&body);
  im_->SetChild(&frame);
  Pump();
  Graphic* g = im_->window()->GetGraphic();
  g->FillRect(g->LocalBounds(), sentinel);
  frame.FullUpdate();  // The frame alone, without the children's repaint.
  im_->window()->Flush();
  const PixelImage& shown = im_->window()->Display();
  for (int y = 0; y < shown.height(); ++y) {
    Color expected = y == frame.divider() ? kBlack : sentinel;
    ASSERT_EQ(shown.GetPixel(0, y), expected) << "row " << y;
    ASSERT_EQ(shown.GetPixel(shown.width() - 1, y), expected) << "row " << y;
  }
  frame.SetBody(nullptr);
  im_->SetChild(nullptr);
}

TEST_F(ComponentTest, ContainersWithoutABodyPaintTheirWholeAllocation) {
  const Color sentinel{1, 2, 3};
  FrameView frame;
  ScrollBarView scrollbar;
  for (bool with_scrollbar : {false, true}) {
    frame.SetBody(with_scrollbar ? &scrollbar : nullptr);
    im_->SetChild(&frame);
    Pump();
    Graphic* g = im_->window()->GetGraphic();
    g->FillRect(g->LocalBounds(), sentinel);
    im_->PostUpdate();
    im_->RunUpdateCycle();
    im_->window()->Flush();
    const PixelImage& shown = im_->window()->Display();
    int left = 0;
    for (int y = 0; y < shown.height(); ++y) {
      for (int x = 0; x < shown.width(); ++x) {
        left += shown.GetPixel(x, y) == sentinel ? 1 : 0;
      }
    }
    EXPECT_EQ(left, 0) << (with_scrollbar ? "scroll bar with no body" : "frame with no body");
    EXPECT_EQ(shown.GetPixel(150, 100), kWhite);
  }
  frame.SetBody(nullptr);
  im_->SetChild(nullptr);
}

}  // namespace
}  // namespace atk
