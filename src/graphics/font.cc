#include "src/graphics/font.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <tuple>

namespace atk {

namespace {
// A 10,240-point face: its 6,145-pixel cells still fit a Span's uint16_t.
constexpr int kMaxScale = 1024;
}  // namespace

std::string FontSpec::ToString() const {
  std::ostringstream out;
  out << family << size;
  if (style & kBold) {
    out << "b";
  }
  if (style & kItalic) {
    out << "i";
  }
  return out.str();
}

FontSpec FontSpec::Parse(std::string_view name) {
  FontSpec spec;
  size_t i = 0;
  while (i < name.size() && !std::isdigit(static_cast<unsigned char>(name[i]))) {
    ++i;
  }
  if (i > 0) {
    spec.family = std::string(name.substr(0, i));
  }
  int size = 0;
  while (i < name.size() && std::isdigit(static_cast<unsigned char>(name[i]))) {
    size = size * 10 + (name[i] - '0');
    ++i;
  }
  if (size > 0) {
    spec.size = size;
  }
  spec.style = kPlain;
  for (; i < name.size(); ++i) {
    if (name[i] == 'b') {
      spec.style |= kBold;
    } else if (name[i] == 'i') {
      spec.style |= kItalic;
    }
  }
  return spec;
}

Font::Font(const FontSpec& spec) : spec_(spec) {
  // Nominal sizes up to 14 use the master bitmaps; larger sizes scale up, to
  // at most kMaxScale so that every cell coordinate fits a Span.
  int size = std::min(spec.size, 10 * kMaxScale);
  scale_ = size <= 14 ? 1 : (size + 9) / 10;
  // Rasterize every glyph once: scan one device row per master row.
  row_start_.reserve(kMasterGlyphCount * 7 + 1);
  row_start_.push_back(0);
  for (int g = 0; g < kMasterGlyphCount; ++g) {
    // The box glyph's representative is '\0'; printable glyphs start at ' '.
    char ch = g + 1 == kMasterGlyphCount ? '\0' : static_cast<char>(' ' + g);
    for (int row = 0; row < 7; ++row) {
      int y = row * scale_;
      for (int x = 0; x < advance(); ++x) {
        if (!GlyphBit(ch, x, y)) {
          continue;
        }
        if (spans_.size() > row_start_.back() && spans_.back().x1 == x) {
          ++spans_.back().x1;
        } else {
          spans_.push_back(Span{static_cast<uint16_t>(x), static_cast<uint16_t>(x + 1)});
        }
      }
      row_start_.push_back(static_cast<uint16_t>(spans_.size()));
    }
  }
  spans_.shrink_to_fit();
}

const Font& Font::Get(const FontSpec& spec) {
  struct SpecLess {
    bool operator()(const FontSpec& a, const FontSpec& b) const {
      return std::tie(a.size, a.style, a.family) < std::tie(b.size, b.style, b.family);
    }
  };
  static auto* cache = new std::map<FontSpec, const Font*, SpecLess>();
  auto it = cache->find(spec);
  if (it == cache->end()) {
    it = cache->emplace(spec, new Font(spec)).first;
  }
  return *it->second;
}

const Font& Font::Default() { return Get(FontSpec{}); }

bool Font::GlyphBit(char ch, int x, int y) const {
  const Glyph& glyph = MasterGlyph(ch);
  // Map the scaled cell pixel back to master coordinates.  The glyph's 7
  // master rows span [0, ascent); descenders are drawn within them.
  bool italic = (spec_.style & kItalic) != 0;
  bool bold = (spec_.style & kBold) != 0;
  int my = y / scale_;
  if (my < 0 || my >= 7) {
    return false;
  }
  // Italic: shear the top rows right by up to 2 master columns.
  int shear = italic ? (6 - my) / 3 : 0;
  int shifted = x - shear * scale_;
  int mx = shifted >= 0 ? shifted / scale_ : -1;
  if (glyph.Bit(mx, my)) {
    return true;
  }
  if (bold) {
    // Double strike: a pixel is also inked when the cell one device pixel to
    // the left is inked.
    int bx = shifted - 1;
    int bmx = bx >= 0 ? bx / scale_ : -1;
    if (glyph.Bit(bmx, my)) {
      return true;
    }
  }
  return false;
}

}  // namespace atk
