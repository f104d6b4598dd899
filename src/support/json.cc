#include "support/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "support/logging.hh"

namespace rfl
{

namespace
{

void
appendEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

/** "%.17g" of a finite @p v: the shortest text that round-trips. */
void
appendFinite(std::string &out, double v)
{
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
    out.append(buf, static_cast<size_t>(n));
}

/** UTF-8: a lead byte, then 6-bit continuation bytes, high first. */
void
appendUtf8(std::string &out, uint32_t cp)
{
    static const unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += static_cast<char>(kLead[extra] | cp >> (6 * extra));
    for (int i = extra - 1; i >= 0; --i)
        out += static_cast<char>(0x80 | (cp >> (6 * i) & 0x3F));
}

/** Thrown by Json::Parser on malformed input; never escapes this file. */
struct ParseError
{
    const char *what;
    size_t pos;
};

} // namespace

/** Recursive-descent parser over @p text; pos advances past the value. */
class Json::Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json parseDocument()
    {
        Json v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void fail(const char *what)
    {
        throw ParseError{what, pos_};
    }

    bool consume(const char *token, size_t len)
    {
        if (text_.compare(pos_, len, token, len) != 0)
            return false;
        pos_ += len;
        return true;
    }

    /** Advance past any run of @p chars (npos clamps to the end). */
    void skip(const char *chars)
    {
        pos_ = std::min(text_.find_first_not_of(chars, pos_), text_.size());
    }

    void skipWs() { skip(" \t\n\r"); }

    void expect(char c)
    {
        skipWs();
        if (!consume(&c, 1))
            fail("unexpected character");
    }

    Json parseValue()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{' || c == '[') {
            if (++depth_ > kMaxDepth)
                fail("nesting too deep");
            Json v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
        }
        if (c == '"')
            return Json::makeString(parseString());
        if (consume("true", 4))
            return Json::makeBool(true);
        if (consume("false", 5))
            return Json::makeBool(false);
        if (consume("null", 4))
            return Json();
        return parseNumber();
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            // Raw control bytes pass: older spill lines carry them.
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("bad escape");
            switch (text_[pos_++]) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': appendUtf8(out, parseCodePoint()); break;
              default: fail("unsupported escape");
            }
        }
    }

    /** The code point of a \uXXXX escape whose "\u" is consumed,
     *  joining a UTF-16 surrogate pair; a lone surrogate is rejected. */
    uint32_t parseCodePoint()
    {
        const uint32_t hi = parseHex4();
        if (hi >= 0xDC00 && hi <= 0xDFFF)
            fail("lone low surrogate");
        if (hi < 0xD800 || hi > 0xDBFF)
            return hi;
        if (!consume("\\u", 2))
            fail("lone high surrogate");
        const uint32_t lo = parseHex4();
        if (lo < 0xDC00 || lo > 0xDFFF)
            fail("bad surrogate pair");
        return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
    }

    uint32_t parseHex4()
    {
        uint32_t v = 0;
        const char *p = text_.data() + pos_;
        if (text_.size() - pos_ < 4 ||
            std::from_chars(p, p + 4, v, 16).ptr != p + 4)
            fail("bad \\u escape");
        pos_ += 4;
        return v;
    }

    /** @return whether at least one digit was consumed. */
    bool digits()
    {
        const size_t start = pos_;
        skip("0123456789");
        return pos_ > start;
    }

    Json parseNumber()
    {
        // The nan/inf spill extension (see the header's file comment).
        if (consume("nan", 3))
            return Json::makeNumber(std::nan(""));
        if (consume("inf", 3))
            return Json::makeNumber(HUGE_VAL);
        if (consume("-inf", 4))
            return Json::makeNumber(-HUGE_VAL);
        // Validate the JSON grammar first: strtod alone also takes
        // hex, a leading '+' and a bare '.'.
        const size_t start = pos_;
        consume("-", 1);
        if (!consume("0", 1) && !digits())
            fail("bad number");
        if (consume(".", 1) && !digits())
            fail("bad number");
        if (consume("e", 1) || consume("E", 1)) {
            if (!consume("+", 1))
                consume("-", 1);
            if (!digits())
                fail("bad number");
        }
        char *end = nullptr;
        const double v = std::strtod(text_.c_str() + start, &end);
        if (end != text_.c_str() + pos_)
            fail("bad number");
        return Json::makeNumber(v);
    }

    /** After an element: @return true on ',', false on @p close. */
    bool another(char close)
    {
        skipWs();
        if (consume(",", 1))
            return true;
        if (consume(&close, 1))
            return false;
        fail("expected , or a closing bracket");
    }

    Json parseArray()
    {
        expect('[');
        Json arr = Json::makeArray();
        skipWs();
        if (consume("]", 1))
            return arr;
        do
            arr.arr_.push_back(parseValue());
        while (another(']'));
        return arr;
    }

    Json parseObject()
    {
        expect('{');
        Json obj = Json::makeObject();
        skipWs();
        if (consume("}", 1))
            return obj;
        do {
            std::string key = parseString();
            expect(':');
            // Append, not set(): its duplicate scan is quadratic in
            // the member count of a hostile body.
            obj.obj_.emplace_back(std::move(key), parseValue());
        } while (another('}'));
        return obj;
    }

    const std::string &text_;
    size_t pos_ = 0;
    int depth_ = 0;
};

Json
Json::makeBool(bool v)
{
    Json j(Kind::Bool);
    j.bool_ = v;
    return j;
}

Json
Json::makeNumber(double v)
{
    Json j(Kind::Number);
    j.num_ = v;
    return j;
}

Json
Json::makeString(std::string v)
{
    Json j(Kind::String);
    j.str_ = std::move(v);
    return j;
}

Json
Json::makeArray()
{
    return Json(Kind::Array);
}

Json
Json::makeObject()
{
    return Json(Kind::Object);
}

bool
Json::asBool() const
{
    RFL_ASSERT(kind_ == Kind::Bool);
    return bool_;
}

double
Json::asNumber() const
{
    RFL_ASSERT(kind_ == Kind::Number);
    return num_;
}

const std::string &
Json::asString() const
{
    RFL_ASSERT(kind_ == Kind::String);
    return str_;
}

const std::vector<Json> &
Json::asArray() const
{
    RFL_ASSERT(kind_ == Kind::Array);
    return arr_;
}

void
Json::push(Json v)
{
    RFL_ASSERT(kind_ == Kind::Array);
    arr_.push_back(std::move(v));
}

void
Json::set(const std::string &key, Json v)
{
    RFL_ASSERT(kind_ == Kind::Object);
    for (auto &member : obj_) {
        if (member.first == key) {
            member.second = std::move(v);
            return;
        }
    }
    obj_.emplace_back(key, std::move(v));
}

const Json &
Json::at(const std::string &key) const
{
    RFL_ASSERT(kind_ == Kind::Object);
    for (auto it = obj_.rbegin(); it != obj_.rend(); ++it)
        if (it->first == key)
            return it->second;
    fatal("json: missing member '%s'", key.c_str());
}

bool
Json::has(const std::string &key) const
{
    RFL_ASSERT(kind_ == Kind::Object);
    for (const auto &member : obj_)
        if (member.first == key)
            return true;
    return false;
}

std::string
Json::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

void
Json::dumpTo(std::string &out) const
{
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Number:
        if (std::isnan(num_))
            out += "nan";
        else if (std::isinf(num_))
            out += num_ > 0 ? "inf" : "-inf";
        else
            appendFinite(out, num_);
        break;
      case Kind::String:
        out += '"';
        appendEscaped(out, str_);
        out += '"';
        break;
      case Kind::Array:
        out += '[';
        for (size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out += ',';
            arr_[i].dumpTo(out);
        }
        out += ']';
        break;
      case Kind::Object:
        out += '{';
        for (size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                out += ',';
            out += '"';
            appendEscaped(out, obj_[i].first);
            out += "\":";
            obj_[i].second.dumpTo(out);
        }
        out += '}';
        break;
    }
}

Json
Json::parse(const std::string &text)
{
    try {
        return Parser(text).parseDocument();
    } catch (const ParseError &e) {
        fatal("json: %s at offset %zu", e.what, e.pos);
    }
}

bool
Json::tryParse(const std::string &text, Json *out)
{
    RFL_ASSERT(out != nullptr);
    try {
        *out = Parser(text).parseDocument();
        return true;
    } catch (const ParseError &) {
        return false;
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::string out;
    appendFinite(out, v);
    return out;
}

std::string
escapeXml(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          default: out += c;
        }
    }
    return out;
}

} // namespace rfl
