// Bitmap fonts.
//
// The toolkit's FontDesc abstraction (§8) names a font by family/size/style;
// each window-system backend maps the description onto whatever it can
// render.  Both simulated backends share this bitmap implementation: a 5x7
// pixel master face ("andy"), integer-scaled for sizes, with bold synthesized
// by double-striking and italic by shearing.  Glyphs are authored as ASCII
// art in font_data.cc, so the face is inspectable and testable.
//
// Fonts are interned by FontSpec, and each one rasterizes its glyphs once,
// at construction, into per-row ink spans: drawing a glyph walks its spans
// instead of testing every pixel of the cell.

#ifndef ATK_SRC_GRAPHICS_FONT_H_
#define ATK_SRC_GRAPHICS_FONT_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace atk {

// Style bits, OR-able.
enum FontStyle : unsigned {
  kPlain = 0,
  kBold = 1u << 0,
  kItalic = 1u << 1,
};

struct FontSpec {
  std::string family = "andy";
  int size = 10;  // Nominal point size; 10 and 12 map to scale 1, 20/24 to 2...
  unsigned style = kPlain;

  friend bool operator==(const FontSpec&, const FontSpec&) = default;

  FontSpec WithStyle(unsigned s) const { return FontSpec{family, size, s}; }
  FontSpec WithSize(int sz) const { return FontSpec{family, sz, style}; }
  std::string ToString() const;
  // Parses "family12b", "andy10", "andy24bi" (the Andrew font-name style).
  static FontSpec Parse(std::string_view name);
};

// One master glyph: 5 columns x 7 rows, bit (x, y) set when inked.
struct Glyph {
  std::array<uint8_t, 7> rows{};  // Low 5 bits used, bit 4 = leftmost column.
  bool Bit(int x, int y) const {
    if (x < 0 || x >= 5 || y < 0 || y >= 7) {
      return false;
    }
    return (rows[static_cast<size_t>(y)] >> (4 - x)) & 1u;
  }
};

// The master glyph table holds ASCII 32..126 plus one box glyph, last, that
// stands in for every other char.
constexpr int kMasterGlyphCount = 96;
// Index of `ch`'s glyph in the master table.
inline int MasterGlyphIndex(char ch) {
  int code = static_cast<unsigned char>(ch);
  return code < ' ' || code > '~' ? kMasterGlyphCount - 1 : code - ' ';
}

// A concrete, sized font.  Instances are interned by FontSpec: Get() returns
// a reference valid for the process lifetime.
class Font {
 public:
  // One horizontal run of ink in a glyph cell: pixels [x0, x1) of a row.
  struct Span {
    uint16_t x0 = 0;
    uint16_t x1 = 0;
  };

  static const Font& Get(const FontSpec& spec);
  // The default 10-point plain face.
  static const Font& Default();

  const FontSpec& spec() const { return spec_; }
  // Integer magnification of the master face; sizes above 10,240 points
  // render at that size.
  int scale() const { return scale_; }

  // Vertical metrics, in pixels.
  int ascent() const { return 7 * scale_; }
  int descent() const { return 2 * scale_; }
  int height() const { return ascent() + descent(); }

  // Horizontal advance of one character (monospace face).
  int advance() const { return 6 * scale_ + ((spec_.style & kBold) ? 1 : 0); }

  int StringWidth(std::string_view text) const {
    return static_cast<int>(text.size()) * advance();
  }

  // True when pixel (x, y) of `ch`'s cell is inked.  (0, 0) is the top-left
  // of the cell; the baseline sits at y == ascent().  Style synthesis (bold
  // strike, italic shear) is already applied.
  bool GlyphBit(char ch, int x, int y) const;

  // The inked pixels of row `y` (0 <= y < ascent()) of `ch`'s cell, as
  // sorted, disjoint spans within [0, advance()): exactly the pixels for
  // which GlyphBit is true.
  std::span<const Span> RowSpans(char ch, int y) const {
    size_t row = static_cast<size_t>(MasterGlyphIndex(ch) * 7 + y / scale_);
    return std::span<const Span>(spans_).subspan(row_start_[row],
                                                 row_start_[row + 1] - row_start_[row]);
  }

  // Index of the first character cell at or after pixel `px` (hit-testing).
  int CharIndexAt(int px) const {
    if (px < 0) {
      return 0;
    }
    return px / advance();
  }

 private:
  explicit Font(const FontSpec& spec);

  FontSpec spec_;
  int scale_ = 1;
  // Ink spans of every glyph's 7 master rows, glyph-major; master row r of
  // glyph g owns spans_[row_start_[g * 7 + r], row_start_[g * 7 + r + 1]).
  // GlyphBit reads y only through y / scale_, so one master row serves all
  // scale_ device rows it covers.
  std::vector<Span> spans_;
  std::vector<uint16_t> row_start_;
};

// Access to the master glyph table (font_data.cc).
const Glyph& MasterGlyph(char ch);

}  // namespace atk

#endif  // ATK_SRC_GRAPHICS_FONT_H_
