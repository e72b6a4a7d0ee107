#include "json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "diag.hh"

namespace cryo
{

namespace
{

/** Longest formatDouble output: "-" + 17 digits + "." + "e-308". */
constexpr std::size_t kDoubleChars = 40;

/** printf's %.<precision>g of a finite @p value, C locale. */
char *
renderG(char *buf, double value, int precision)
{
    return std::to_chars(buf, buf + kDoubleChars, value,
                         std::chars_format::general, precision)
        .ptr;
}

/**
 * formatDouble's rendering of a finite @p value into @p buf; returns
 * the end. to_chars in general format at a precision is printf's %.*g
 * in the C locale, and from_chars rounds as strtod does; neither
 * reads the locale.
 */
char *
renderDouble(char *buf, double value)
{
    // Shortest round-trip digits in scientific form, "-d.ddde+XX":
    // count the digits before the exponent.
    const char *sci = std::to_chars(buf, buf + kDoubleChars, value,
                                    std::chars_format::scientific)
                          .ptr;
    int digits = 0;
    for (const char *p = buf; p != sci && *p != 'e'; ++p)
        digits += *p >= '0' && *p <= '9' ? 1 : 0;

    // At most 15 digits: the shortest decimal S reads back as value,
    // and a decimal of at most DBL_DIG = 15 digits survives the trip
    // through a double, so %.15g of value is S again. 17 digits: no
    // 16-digit decimal reads back as value, %.16g included.
    if (digits <= 15)
        return renderG(buf, value, 15);
    if (digits == 17)
        return renderG(buf, value, 17);
    // 16 digits: at a binade boundary the nearest 16-digit decimal
    // can fall outside the narrower half of the rounding interval
    // while a farther one inside the wider half reads back, so check.
    char *end = renderG(buf, value, 16);
    double back = 0.0;
    const std::from_chars_result r = std::from_chars(buf, end, back);
    if (r.ec == std::errc{} && back == value)
        return end;
    return renderG(buf, value, 17);
}

/** Append @p s to @p out, escaped per RFC 8259 (no quotes). */
void
appendEscaped(std::string &out, std::string_view s)
{
    std::size_t plain = 0; ///< start of the run not yet appended
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char ch = s[i];
        if (ch != '"' && ch != '\\' &&
            static_cast<unsigned char>(ch) >= 0x20)
            continue;
        out.append(s, plain, i - plain);
        plain = i + 1;
        switch (ch) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\b':
            out += "\\b";
            break;
        case '\f':
            out += "\\f";
            break;
        default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(
                              static_cast<unsigned char>(ch)));
            out += buf;
        }
        }
    }
    out.append(s, plain, s.size() - plain);
}

} // namespace

std::string
formatDouble(double value)
{
    if (std::isnan(value))
        return "nan";
    if (std::isinf(value))
        return value > 0.0 ? "inf" : "-inf";
    char buf[kDoubleChars];
    return std::string(buf, renderDouble(buf, value));
}

JsonWriter::JsonWriter(std::ostream &out, int indent)
    : out_(out), indent_(indent)
{
    // One allocation holds a DSE record or a service reply whole.
    buf_.reserve(512);
}

JsonWriter::~JsonWriter()
{
    // Not fatal() in a destructor: an unfinished document (a throw
    // mid-document) is written as far as it got, for the tests and
    // the reader to see.
    if (!buf_.empty())
        out_.write(buf_.data(),
                   static_cast<std::streamsize>(buf_.size()));
    if (done_ && stack_.empty())
        out_ << '\n';
}

void
JsonWriter::newline()
{
    buf_ += '\n';
    buf_.append(stack_.size() * static_cast<std::size_t>(indent_), ' ');
}

void
JsonWriter::afterValue()
{
    if (!stack_.empty())
        return;
    done_ = true;
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
}

void
JsonWriter::beforeValue(bool is_key)
{
    fatalIf(done_, "JSON document already complete");
    if (stack_.empty()) {
        fatalIf(is_key, "JSON key outside any object");
        return; // the root value
    }
    Scope &top = stack_.back();
    if (top.kind == '{') {
        fatalIf(!is_key && !keyPending_,
                "JSON value inside an object needs a key first");
        fatalIf(is_key && keyPending_, "two JSON keys in a row");
        if (keyPending_) {
            keyPending_ = false;
            return; // "key": was already emitted with its separators
        }
    } else {
        fatalIf(is_key, "JSON key inside an array");
    }
    if (!top.first)
        buf_ += ',';
    top.first = false;
    if (indent_ > 0)
        newline();
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue(false);
    buf_ += '{';
    stack_.push_back({'{', true});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    fatalIf(stack_.empty() || stack_.back().kind != '{',
            "endObject without a matching beginObject");
    fatalIf(keyPending_, "JSON key without a value");
    const bool empty = stack_.back().first;
    stack_.pop_back();
    if (!empty && indent_ > 0)
        newline();
    buf_ += '}';
    afterValue();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue(false);
    buf_ += '[';
    stack_.push_back({'[', true});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    fatalIf(stack_.empty() || stack_.back().kind != '[',
            "endArray without a matching beginArray");
    const bool empty = stack_.back().first;
    stack_.pop_back();
    if (!empty && indent_ > 0)
        newline();
    buf_ += ']';
    afterValue();
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    fatalIf(stack_.empty() || stack_.back().kind != '{',
            "JSON key outside any object");
    beforeValue(true);
    buf_ += '"';
    appendEscaped(buf_, name);
    buf_ += indent_ > 0 ? "\": " : "\":";
    keyPending_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    if (!std::isfinite(v))
        return null();
    beforeValue(false);
    char buf[kDoubleChars];
    buf_.append(buf, renderDouble(buf, v));
    afterValue();
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    beforeValue(false);
    buf_ += '"';
    appendEscaped(buf_, s);
    buf_ += '"';
    afterValue();
    return *this;
}

JsonWriter &
JsonWriter::value(const char *s)
{
    return value(std::string_view{s});
}

JsonWriter &
JsonWriter::value(bool b)
{
    beforeValue(false);
    buf_ += b ? "true" : "false";
    afterValue();
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    return value(static_cast<std::int64_t>(v));
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    beforeValue(false);
    char buf[24];
    buf_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    afterValue();
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    beforeValue(false);
    char buf[24];
    buf_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    afterValue();
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    beforeValue(false);
    buf_ += "null";
    afterValue();
    return *this;
}

// -- JsonValue accessors --------------------------------------------

namespace
{

const char *
kindName(JsonValue::Kind k)
{
    switch (k) {
    case JsonValue::Kind::Null:
        return "null";
    case JsonValue::Kind::Bool:
        return "bool";
    case JsonValue::Kind::Number:
        return "number";
    case JsonValue::Kind::String:
        return "string";
    case JsonValue::Kind::Array:
        return "array";
    case JsonValue::Kind::Object:
        return "object";
    }
    return "?";
}

} // namespace

JsonValue
JsonValue::makeNumber(double v)
{
    JsonValue out;
    out.kind_ = Kind::Number;
    out.number_ = v;
    return out;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue out;
    out.kind_ = Kind::String;
    out.string_ = std::move(s);
    return out;
}

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue out;
    out.kind_ = Kind::Bool;
    out.bool_ = v;
    return out;
}

void
JsonValue::valueError(const std::string &what) const
{
    fatal("json value at line " + std::to_string(line_) + ", column " +
          std::to_string(column_) + ": " + what);
}

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::Number)
        valueError(std::string("expected a number, found ") +
                   kindName(kind_));
    return number_;
}

std::int64_t
JsonValue::asInteger() const
{
    const double v = asNumber();
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) != v)
        valueError("expected a whole number, found " + formatDouble(v));
    return i;
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        valueError(std::string("expected a string, found ") +
                   kindName(kind_));
    return string_;
}

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        valueError(std::string("expected a boolean, found ") +
                   kindName(kind_));
    return bool_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (kind_ != Kind::Array)
        valueError(std::string("expected an array, found ") +
                   kindName(kind_));
    return items_;
}

const std::vector<JsonValue::Member> &
JsonValue::members() const
{
    if (kind_ != Kind::Object)
        valueError(std::string("expected an object, found ") +
                   kindName(kind_));
    return members_;
}

std::size_t
JsonValue::size() const
{
    if (kind_ == Kind::Array)
        return items_.size();
    if (kind_ == Kind::Object)
        return members_.size();
    valueError(std::string("expected an array or object, found ") +
               kindName(kind_));
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const Member &m : members())
        if (m.first == key)
            return &m.second;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    if (v == nullptr)
        valueError("missing required member \"" + key + "\"");
    return *v;
}

// -- parser ---------------------------------------------------------

/**
 * Recursive-descent RFC-8259 parser. One instance per document;
 * tracks (line, column) as it consumes so every error and every
 * parsed value carries its source position.
 */
class JsonParser
{
  public:
    JsonParser(std::string_view text, const std::string &source)
        : text_(text), source_(source)
    {
    }

    JsonValue parse()
    {
        JsonValue root = parseValue(0);
        skipWhitespace();
        if (pos_ != text_.size())
            error("trailing garbage after the JSON document");
        return root;
    }

  private:
    static constexpr int kMaxDepth = 200; ///< nesting guard

    [[noreturn]] void error(const std::string &what) const
    {
        fatal(source_ + ":" + std::to_string(line_) + ":" +
              std::to_string(col_) + ": " + what);
    }

    bool atEnd() const { return pos_ >= text_.size(); }

    char peek() const
    {
        if (atEnd())
            error("unexpected end of input");
        return text_[pos_];
    }

    char advance()
    {
        const char ch = peek();
        ++pos_;
        if (ch == '\n') {
            ++line_;
            col_ = 1;
        } else {
            ++col_;
        }
        return ch;
    }

    void expect(char want, const char *context)
    {
        if (atEnd() || peek() != want)
            error(std::string("expected '") + want + "' " + context);
        advance();
    }

    void skipWhitespace()
    {
        while (!atEnd()) {
            const char ch = text_[pos_];
            if (ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r')
                break;
            advance();
        }
    }

    /** Consume a fixed keyword (true/false/null). */
    void literal(const char *word)
    {
        for (const char *p = word; *p != '\0'; ++p) {
            if (atEnd() || peek() != *p)
                error(std::string("invalid literal (expected '") +
                      word + "')");
            advance();
        }
    }

    JsonValue parseValue(int depth)
    {
        if (depth > kMaxDepth)
            error("nesting deeper than 200 levels");
        skipWhitespace();
        JsonValue v;
        v.line_ = line_;
        v.column_ = col_;
        const char ch = peek();
        switch (ch) {
        case '{':
            parseObject(v, depth);
            break;
        case '[':
            parseArray(v, depth);
            break;
        case '"':
            v.kind_ = JsonValue::Kind::String;
            v.string_ = parseString();
            break;
        case 't':
            literal("true");
            v.kind_ = JsonValue::Kind::Bool;
            v.bool_ = true;
            break;
        case 'f':
            literal("false");
            v.kind_ = JsonValue::Kind::Bool;
            v.bool_ = false;
            break;
        case 'n':
            literal("null");
            v.kind_ = JsonValue::Kind::Null;
            break;
        default:
            if (ch == '-' || (ch >= '0' && ch <= '9')) {
                v.kind_ = JsonValue::Kind::Number;
                v.number_ = parseNumber();
            } else {
                error(std::string("unexpected character '") + ch + "'");
            }
        }
        return v;
    }

    void parseObject(JsonValue &v, int depth)
    {
        v.kind_ = JsonValue::Kind::Object;
        expect('{', "to open an object");
        skipWhitespace();
        if (!atEnd() && peek() == '}') {
            advance();
            return;
        }
        for (;;) {
            skipWhitespace();
            if (atEnd() || peek() != '"')
                error("expected a quoted member name");
            std::string key = parseString();
            skipWhitespace();
            expect(':', "after the member name");
            v.members_.emplace_back(std::move(key),
                                    parseValue(depth + 1));
            skipWhitespace();
            const char next = peek();
            if (next == ',') {
                advance();
                continue;
            }
            if (next == '}') {
                advance();
                return;
            }
            error("expected ',' or '}' in an object");
        }
    }

    void parseArray(JsonValue &v, int depth)
    {
        v.kind_ = JsonValue::Kind::Array;
        expect('[', "to open an array");
        skipWhitespace();
        if (!atEnd() && peek() == ']') {
            advance();
            return;
        }
        for (;;) {
            v.items_.push_back(parseValue(depth + 1));
            skipWhitespace();
            const char next = peek();
            if (next == ',') {
                advance();
                continue;
            }
            if (next == ']') {
                advance();
                return;
            }
            error("expected ',' or ']' in an array");
        }
    }

    std::string parseString()
    {
        expect('"', "to open a string");
        std::string out;
        for (;;) {
            const char ch = advance();
            if (ch == '"')
                return out;
            if (static_cast<unsigned char>(ch) < 0x20)
                error("unescaped control character in a string");
            if (ch != '\\') {
                out += ch;
                continue;
            }
            const char esc = advance();
            switch (esc) {
            case '"':
                out += '"';
                break;
            case '\\':
                out += '\\';
                break;
            case '/':
                out += '/';
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'n':
                out += '\n';
                break;
            case 'r':
                out += '\r';
                break;
            case 't':
                out += '\t';
                break;
            case 'u':
                appendCodepoint(out, parseHex4());
                break;
            default:
                error(std::string("invalid escape '\\") + esc + "'");
            }
        }
    }

    unsigned parseHex4()
    {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char ch = advance();
            code <<= 4;
            if (ch >= '0' && ch <= '9')
                code |= static_cast<unsigned>(ch - '0');
            else if (ch >= 'a' && ch <= 'f')
                code |= static_cast<unsigned>(ch - 'a' + 10);
            else if (ch >= 'A' && ch <= 'F')
                code |= static_cast<unsigned>(ch - 'A' + 10);
            else
                error("invalid \\u escape (need 4 hex digits)");
        }
        return code;
    }

    /** UTF-8-encode one BMP codepoint (surrogate pairs rejoin). */
    void appendCodepoint(std::string &out, unsigned code)
    {
        if (code >= 0xd800 && code <= 0xdbff) {
            // High surrogate: a low surrogate escape must follow.
            if (atEnd() || peek() != '\\')
                error("unpaired UTF-16 surrogate");
            advance();
            if (atEnd() || peek() != 'u')
                error("unpaired UTF-16 surrogate");
            advance();
            const unsigned low = parseHex4();
            if (low < 0xdc00 || low > 0xdfff)
                error("invalid low surrogate");
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        } else if (code >= 0xdc00 && code <= 0xdfff) {
            error("unpaired UTF-16 surrogate");
        }
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
    }

    double parseNumber()
    {
        const std::size_t start = pos_;
        if (!atEnd() && peek() == '-')
            advance();
        if (atEnd() || peek() < '0' || peek() > '9')
            error("invalid number");
        if (peek() == '0') {
            advance(); // leading zero: no further integer digits
        } else {
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                advance();
        }
        if (!atEnd() && peek() == '.') {
            advance();
            if (atEnd() || peek() < '0' || peek() > '9')
                error("digit required after the decimal point");
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                advance();
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            advance();
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                advance();
            if (atEnd() || peek() < '0' || peek() > '9')
                error("digit required in the exponent");
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                advance();
        }
        const std::string token{text_.substr(start, pos_ - start)};
        return std::strtod(token.c_str(), nullptr);
    }

    std::string_view text_;
    std::string source_;
    std::size_t pos_ = 0;
    int line_ = 1;
    int col_ = 1;
};

JsonValue
parseJson(std::string_view text, const std::string &source)
{
    JsonParser parser{text, source};
    return parser.parse();
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

} // namespace cryo
