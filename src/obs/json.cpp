#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <locale>
#include <sstream>

#include "common/error.hpp"
#include "common/parse_num.hpp"

namespace amped::obs {

std::string
formatDouble(double value)
{
    if (std::isnan(value))
        return "nan";
    if (std::isinf(value))
        return value > 0.0 ? "inf" : "-inf";
    // Shortest precision that survives a parse round trip.  The
    // stream is pinned to the classic locale and the reparse goes
    // through the locale-independent parseDouble, so a process-wide
    // std::locale::global(de_DE) cannot change a single byte of
    // rendered JSON or golden files.
    for (int precision = 1; precision <= 17; ++precision) {
        std::ostringstream oss;
        oss.imbue(std::locale::classic());
        oss.precision(precision);
        oss << value;
        const std::string text = oss.str();
        if (parseDouble(text.c_str()) == value)
            return text;
    }
    AMPED_ASSERT(false, "17 significant digits must round-trip");
    return {};
}

std::string
quoteJsonString(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    out.push_back('"');
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

Json::Json(std::uint64_t u)
{
    if (u <= static_cast<std::uint64_t>(
                 std::numeric_limits<std::int64_t>::max())) {
        kind_ = Kind::integer;
        integer_ = static_cast<std::int64_t>(u);
    } else {
        kind_ = Kind::number;
        number_ = static_cast<double>(u);
    }
}

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::object;
    return j;
}

double
Json::asDouble() const
{
    if (kind_ == Kind::integer)
        return static_cast<double>(integer_);
    if (kind_ == Kind::null)
        return std::numeric_limits<double>::quiet_NaN();
    require(kind_ == Kind::number, "json: value is not a number");
    return number_;
}

std::int64_t
Json::asInt() const
{
    if (kind_ == Kind::number) {
        if (!(number_ == std::floor(number_) &&
              std::isfinite(number_)))
            fatal("json: number ", formatDouble(number_),
                  " is not an integer");
        return static_cast<std::int64_t>(number_);
    }
    require(kind_ == Kind::integer, "json: value is not an integer");
    return integer_;
}

bool
Json::asBool() const
{
    require(kind_ == Kind::boolean, "json: value is not a boolean");
    return bool_;
}

const std::string &
Json::asString() const
{
    require(kind_ == Kind::string, "json: value is not a string");
    return string_;
}

Json &
Json::push(Json value)
{
    require(kind_ == Kind::array, "json: push on non-array");
    array_.push_back(std::move(value));
    return *this;
}

const std::vector<Json> &
Json::items() const
{
    require(kind_ == Kind::array, "json: items() on non-array");
    return array_;
}

std::size_t
Json::size() const
{
    if (kind_ == Kind::array)
        return array_.size();
    if (kind_ == Kind::object)
        return object_.size();
    fatal("json: size() on scalar value");
}

const Json &
Json::at(std::size_t index) const
{
    require(kind_ == Kind::array, "json: index on non-array");
    require(index < array_.size(), "json: index ", index,
            " out of range (size ", array_.size(), ")");
    return array_[index];
}

Json &
Json::set(const std::string &key, Json value)
{
    require(kind_ == Kind::object, "json: set on non-object");
    require(!contains(key), "json: duplicate key '", key, "'");
    object_.emplace_back(key, std::move(value));
    return *this;
}

bool
Json::contains(const std::string &key) const
{
    require(kind_ == Kind::object, "json: contains on non-object");
    for (const auto &[k, v] : object_)
        if (k == key)
            return true;
    return false;
}

const Json &
Json::at(const std::string &key) const
{
    require(kind_ == Kind::object, "json: member access on "
            "non-object");
    for (const auto &[k, v] : object_)
        if (k == key)
            return v;
    fatal("json: missing key '", key, "'");
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    require(kind_ == Kind::object, "json: members() on non-object");
    return object_;
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const auto newline = [&](int level) {
        if (indent <= 0)
            return;
        out.push_back('\n');
        out.append(static_cast<std::size_t>(indent * level), ' ');
    };
    switch (kind_) {
      case Kind::null:
        out += "null";
        break;
      case Kind::boolean:
        out += bool_ ? "true" : "false";
        break;
      case Kind::integer:
        out += std::to_string(integer_);
        break;
      case Kind::number:
        // JSON has no NaN/Infinity; degrade to null rather than emit
        // a file chrome://tracing would reject.
        out += std::isfinite(number_) ? formatDouble(number_)
                                      : "null";
        break;
      case Kind::string:
        out += quoteJsonString(string_);
        break;
      case Kind::array:
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out.push_back('[');
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i != 0)
                out.push_back(',');
            newline(depth + 1);
            array_[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out.push_back(']');
        break;
      case Kind::object:
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out.push_back('{');
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i != 0)
                out.push_back(',');
            newline(depth + 1);
            out += quoteJsonString(object_[i].first);
            out.push_back(':');
            if (indent > 0)
                out.push_back(' ');
            object_[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out.push_back('}');
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent RFC 8259 parser over an in-memory string. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json
    parse()
    {
        Json value = parseValue();
        skipWhitespace();
        require(pos_ == text_.size(), "json: trailing characters at "
                "offset ", pos_);
        return value;
    }

  private:
    void
    skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        require(pos_ < text_.size(),
                "json: unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        require(peek() == c, "json: expected '", c, "' at offset ",
                pos_, ", found '", text_[pos_], "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *literal)
    {
        const std::size_t n = std::char_traits<char>::length(literal);
        if (text_.compare(pos_, n, literal) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Json
    parseValue()
    {
        skipWhitespace();
        const char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return Json(parseString());
        if (consumeLiteral("null"))
            return Json(nullptr);
        if (consumeLiteral("true"))
            return Json(true);
        if (consumeLiteral("false"))
            return Json(false);
        return parseNumber();
    }

    Json
    parseObject()
    {
        expect('{');
        Json obj = Json::object();
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skipWhitespace();
            const std::string key = parseString();
            skipWhitespace();
            expect(':');
            obj.set(key, parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    Json
    parseArray()
    {
        expect('[');
        Json arr = Json::array();
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            require(pos_ < text_.size(), "json: unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                require(static_cast<unsigned char>(c) >= 0x20,
                        "json: raw control character in string at "
                        "offset ", pos_ - 1);
                out.push_back(c);
                continue;
            }
            require(pos_ < text_.size(), "json: unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                require(pos_ + 4 <= text_.size(),
                        "json: truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fatal("json: bad hex digit '", h,
                              "' in \\u escape");
                }
                // UTF-8 encode (no surrogate-pair support; the
                // emitter only produces \u00xx escapes).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default:
                fatal("json: invalid escape '\\", esc, "'");
            }
        }
    }

    Json
    parseNumber()
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        bool integral = true;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' ||
                       c == '+' || c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        require(pos_ > start, "json: invalid value at offset ",
                start);
        const std::string text = text_.substr(start, pos_ - start);
        char *end = nullptr;
        if (integral) {
            const long long v =
                std::strtoll(text.c_str(), &end, 10);
            require(end == text.c_str() + text.size(),
                    "json: malformed number '", text, "'");
            return Json(static_cast<std::int64_t>(v));
        }
        const char *numEnd = nullptr;
        const double v = parseDouble(text.c_str(), &numEnd);
        require(numEnd == text.c_str() + text.size(),
                "json: malformed number '", text, "'");
        return Json(v);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace amped::obs
