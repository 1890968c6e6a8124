#include "src/sim/json.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace tlbsim {

Json& Json::operator[](std::string_view key) {
  if (type_ == Type::kNull) {
    type_ = Type::kObject;
  }
  assert(type_ == Type::kObject);
  for (auto& [k, v] : object_) {
    if (k == key) {
      return v;
    }
  }
  object_.emplace_back(std::string(key), Json());
  return object_.back().second;
}

void Json::AppendMember(std::string key, Json v) {
  if (type_ == Type::kNull) {
    type_ = Type::kObject;
  }
  assert(type_ == Type::kObject);
  object_.emplace_back(std::move(key), std::move(v));
}

const Json* Json::Find(std::string_view key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : object_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

void Json::Append(Json v) {
  if (type_ == Type::kNull) {
    type_ = Type::kArray;
  }
  assert(type_ == Type::kArray);
  array_.push_back(std::move(v));
}

size_t Json::size() const {
  switch (type_) {
    case Type::kArray:
      return array_.size();
    case Type::kObject:
      return object_.size();
    default:
      return 0;
  }
}

bool Json::AsBool(bool fallback) const { return type_ == Type::kBool ? bool_ : fallback; }

int64_t Json::AsInt(int64_t fallback) const {
  switch (type_) {
    case Type::kInt:
      return int_;
    case Type::kUint:
      return static_cast<int64_t>(uint_);
    case Type::kDouble:
      return static_cast<int64_t>(double_);
    default:
      return fallback;
  }
}

uint64_t Json::AsUint(uint64_t fallback) const {
  switch (type_) {
    case Type::kInt:
      return int_ >= 0 ? static_cast<uint64_t>(int_) : fallback;
    case Type::kUint:
      return uint_;
    case Type::kDouble:
      return double_ >= 0 ? static_cast<uint64_t>(double_) : fallback;
    default:
      return fallback;
  }
}

double Json::AsDouble(double fallback) const {
  switch (type_) {
    case Type::kInt:
      return static_cast<double>(int_);
    case Type::kUint:
      return static_cast<double>(uint_);
    case Type::kDouble:
      return double_;
    default:
      return fallback;
  }
}

bool Json::operator==(const Json& other) const {
  if (is_number() && other.is_number()) {
    // Integral values stored as int vs uint vs double must still compare
    // equal when they denote the same number.
    if (type_ == Type::kDouble || other.type_ == Type::kDouble) {
      return AsDouble() == other.AsDouble();
    }
    if (type_ == Type::kInt && int_ < 0) {
      return other.type_ == Type::kInt && other.int_ == int_;
    }
    if (other.type_ == Type::kInt && other.int_ < 0) {
      return false;
    }
    return AsUint() == other.AsUint();
  }
  if (type_ != other.type_) {
    return false;
  }
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
    default:
      return false;  // numbers handled above
  }
}

void Json::EscapeTo(std::string_view s, std::string* out) {
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += static_cast<char>(c);
        }
    }
  }
}

namespace {

void AppendNumber(std::string* out, int64_t v) {
  char buf[32];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out->append(buf, p);
}

void AppendNumber(std::string* out, uint64_t v) {
  char buf[32];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out->append(buf, p);
}

void AppendNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";  // JSON has no NaN/Inf
    return;
  }
  char buf[64];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out->append(buf, p);
}

void Newline(std::string* out, int indent, int depth) {
  if (indent > 0) {
    *out += '\n';
    out->append(static_cast<size_t>(indent) * depth, ' ');
  }
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kInt:
      AppendNumber(out, int_);
      break;
    case Type::kUint:
      AppendNumber(out, uint_);
      break;
    case Type::kDouble:
      AppendNumber(out, double_);
      break;
    case Type::kString:
      *out += '"';
      EscapeTo(string_, out);
      *out += '"';
      break;
    case Type::kArray: {
      if (array_.empty()) {
        *out += "[]";
        break;
      }
      *out += '[';
      bool first = true;
      for (const Json& v : array_) {
        if (!first) {
          *out += ',';
        }
        first = false;
        Newline(out, indent, depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      *out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        *out += "{}";
        break;
      }
      *out += '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) {
          *out += ',';
        }
        first = false;
        Newline(out, indent, depth + 1);
        *out += '"';
        EscapeTo(k, out);
        *out += "\":";
        if (indent > 0) {
          *out += ' ';
        }
        v.DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      *out += '}';
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> Run() {
    SkipWs();
    Json value;
    if (!ParseValue(&value)) {
      return std::nullopt;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return std::nullopt;  // trailing garbage
    }
    return value;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool EatWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  bool ParseValue(Json* out) {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case 'n':
        return EatWord("null") && (*out = Json(), true);
      case 't':
        return EatWord("true") && (*out = Json(true), true);
      case 'f':
        return EatWord("false") && (*out = Json(false), true);
      case '"':
        return ParseString(out);
      case '[':
        return ParseArray(out);
      case '{':
        return ParseObject(out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseHex4(uint32_t* v) {
    if (pos_ + 4 > text_.size()) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      *v <<= 4;
      if (c >= '0' && c <= '9') {
        *v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        *v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        *v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    return true;
  }

  static void AppendUtf8(std::string* s, uint32_t cp) {
    if (cp < 0x80) {
      *s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *s += static_cast<char>(0xc0 | (cp >> 6));
      *s += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      *s += static_cast<char>(0xe0 | (cp >> 12));
      *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      *s += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      *s += static_cast<char>(0xf0 | (cp >> 18));
      *s += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      *s += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  bool ParseStringRaw(std::string* s) {
    if (!Eat('"')) {
      return false;
    }
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          return false;  // control characters must be escaped
        }
        *s += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      char e = text_[pos_++];
      switch (e) {
        case '"':
          *s += '"';
          break;
        case '\\':
          *s += '\\';
          break;
        case '/':
          *s += '/';
          break;
        case 'b':
          *s += '\b';
          break;
        case 'f':
          *s += '\f';
          break;
        case 'n':
          *s += '\n';
          break;
        case 'r':
          *s += '\r';
          break;
        case 't':
          *s += '\t';
          break;
        case 'u': {
          uint32_t cp = 0;
          if (!ParseHex4(&cp)) {
            return false;
          }
          // Surrogate pair.
          if (cp >= 0xd800 && cp <= 0xdbff) {
            if (!Eat('\\') || !Eat('u')) {
              return false;
            }
            uint32_t lo = 0;
            if (!ParseHex4(&lo) || lo < 0xdc00 || lo > 0xdfff) {
              return false;
            }
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
          }
          AppendUtf8(s, cp);
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseString(Json* out) {
    std::string s;
    if (!ParseStringRaw(&s)) {
      return false;
    }
    *out = Json(std::move(s));
    return true;
  }

  bool ParseNumber(Json* out) {
    size_t start = pos_;
    bool negative = Eat('-');
    bool is_double = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == start + (negative ? 1 : 0)) {
      return false;  // no digits
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    std::string_view tok = text_.substr(start, pos_ - start);
    if (!is_double) {
      if (negative) {
        int64_t v = 0;
        auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
        if (ec == std::errc() && p == tok.data() + tok.size()) {
          *out = Json(v);
          return true;
        }
      } else {
        uint64_t v = 0;
        auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
        if (ec == std::errc() && p == tok.data() + tok.size()) {
          *out = Json(v);
          return true;
        }
      }
      // Out-of-range integer: fall through to double.
    }
    double d = 0.0;
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc() || p != tok.data() + tok.size()) {
      return false;
    }
    *out = Json(d);
    return true;
  }

  bool ParseArray(Json* out) {
    if (!Eat('[')) {
      return false;
    }
    *out = Json::Array();
    SkipWs();
    if (Eat(']')) {
      return true;
    }
    while (true) {
      Json v;
      SkipWs();
      if (!ParseValue(&v)) {
        return false;
      }
      out->Append(std::move(v));
      SkipWs();
      if (Eat(']')) {
        return true;
      }
      if (!Eat(',')) {
        return false;
      }
    }
  }

  bool ParseObject(Json* out) {
    if (!Eat('{')) {
      return false;
    }
    *out = Json::Object();
    SkipWs();
    if (Eat('}')) {
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseStringRaw(&key)) {
        return false;
      }
      SkipWs();
      if (!Eat(':')) {
        return false;
      }
      SkipWs();
      Json v;
      if (!ParseValue(&v)) {
        return false;
      }
      (*out)[key] = std::move(v);
      SkipWs();
      if (Eat('}')) {
        return true;
      }
      if (!Eat(',')) {
        return false;
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<Json> Json::Parse(std::string_view text) { return Parser(text).Run(); }

}  // namespace tlbsim
