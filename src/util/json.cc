#include "json.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <system_error>

#include "diag.hh"

namespace cryo
{

namespace
{

/** Longest formatDouble output: "-" + 17 digits + "." + "e-308". */
constexpr std::size_t kDoubleChars = 40;

/**
 * Bytes a writer reserves: one allocation holds a DSE result line
 * (~530 bytes), a cache record or a service reply whole.
 */
constexpr std::size_t kDocumentReserve = 640;

/** printf's %.<precision>g of a finite @p value, C locale. */
char *
renderG(char *buf, double value, int precision)
{
    return std::to_chars(buf, buf + kDoubleChars, value,
                         std::chars_format::general, precision)
        .ptr;
}

/**
 * The printf ladder for a finite @p value whose shortest round-trip
 * decimal has @p digits digits: %.15g, %.16g or %.17g, rendered into
 * @p buf. to_chars in general format at a precision is printf's %.*g
 * in the C locale, and from_chars rounds as strtod does; neither
 * reads the locale.
 */
char *
renderLadder(char *buf, double value, int digits)
{
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

/**
 * formatDouble's rendering of a finite @p value into @p buf; returns
 * the end.
 *
 * For a normal value that is not a power of two the rounding interval
 * is symmetric, and the rung the ladder takes is the shortest digits
 * S laid out by %g's rule at P = max(15, digits of S). At most 15
 * digits: two 15-digit decimals never read back as one normal double,
 * so %.15g, the nearest, is S padded with zeros. 16 or 17: no shorter
 * rung reads back, and the nearest decimal of S's length lies in the
 * symmetric interval, so it is S (to_chars breaks a tie to even, as
 * printf does). Powers of two and subnormals (fewer than 15 digits
 * survive there) take the ladder itself.
 */
char *
renderDouble(char *buf, double value)
{
    // Shortest round-trip digits in scientific form, "-d.ddde+XX".
    char *sci = std::to_chars(buf, buf + kDoubleChars, value,
                              std::chars_format::scientific)
                    .ptr;
    char *first = buf + (std::signbit(value) ? 1 : 0); ///< lead digit
    char *exp = std::find(first, sci, 'e');
    char digits[17];
    int count = 0;
    for (const char *p = first; p != exp; ++p)
        if (*p != '.')
            digits[count++] = *p;

    constexpr std::uint64_t kFraction = (std::uint64_t{1} << 52) - 1;
    if (!std::isnormal(value) ||
        (std::bit_cast<std::uint64_t>(value) & kFraction) == 0)
        return renderLadder(buf, value, count);

    int exponent = 0;
    std::from_chars(exp + (exp[1] == '+' ? 2 : 1), sci, exponent);
    // %g: scientific (what to_chars wrote) below 1e-4 or at P digits
    // left of the point; otherwise fixed, trailing zeros dropped.
    if (exponent < -4 || exponent >= std::max(count, 15))
        return sci;
    char *out = first;
    if (exponent < 0) {
        *out++ = '0';
        *out++ = '.';
        out = std::fill_n(out, -exponent - 1, '0');
        return std::copy_n(digits, count, out);
    }
    const int whole = exponent + 1; ///< digits left of the point
    out = std::copy_n(digits, std::min(count, whole), out);
    if (count <= whole)
        return std::fill_n(out, whole - count, '0');
    *out++ = '.';
    return std::copy(digits + whole, digits + count, out);
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
    : out_(&out), indent_(indent)
{
    buf_.reserve(kDocumentReserve);
}

JsonWriter::JsonWriter() : out_(nullptr), indent_(0)
{
    buf_.reserve(kDocumentReserve);
}

JsonWriter::~JsonWriter()
{
    // Not fatal() in a destructor: an unfinished document (a throw
    // mid-document) is written as far as it got, for the tests and
    // the reader to see.
    if (out_ == nullptr)
        return;
    if (!buf_.empty())
        out_->write(buf_.data(),
                    static_cast<std::streamsize>(buf_.size()));
    if (done_ && stack_.empty())
        *out_ << '\n';
}

std::string
JsonWriter::take()
{
    fatalIf(out_ != nullptr, "JsonWriter::take() on a streaming writer");
    fatalIf(!done_, "JsonWriter::take() before the root value closed");
    return std::move(buf_);
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
    if (out_ == nullptr)
        return; // the document waits for take()
    out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
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

JsonWriter &
JsonWriter::raw(std::string_view json)
{
    beforeValue(false);
    buf_ += json;
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

namespace
{

bool
isDigit(char ch)
{
    return ch >= '0' && ch <= '9';
}

/** A string byte copied as is: no quote, backslash or control byte. */
bool
isPlain(char ch)
{
    return ch != '"' && ch != '\\' && static_cast<unsigned char>(ch) >= 0x20;
}

/**
 * What strtod reads from a grammatical number @p token that
 * from_chars found out of range: the signed infinity when the
 * magnitude is at least 1 (overflow), else the signed zero
 * (underflow). Worked out from the digits, not by strtod, which reads
 * the locale's decimal point.
 */
double
outOfRange(std::string_view token)
{
    const bool negative = token.front() == '-';
    const std::size_t e = std::min(token.find_first_of("eE"), token.size());
    const std::string_view mantissa =
        token.substr(negative ? 1 : 0, e - (negative ? 1 : 0));
    // Decimal exponent of the first nonzero digit. JSON allows no
    // leading zeros, so a nonzero integer part starts with it;
    // otherwise it follows the fraction's zeros (an all-zero mantissa
    // reads as zero, never out of range).
    std::int64_t lead = 0;
    if (mantissa[0] != '0')
        lead = static_cast<std::int64_t>(
                   std::min(mantissa.find('.'), mantissa.size())) -
               1;
    else // "0.", then zeros
        lead = 1 - static_cast<std::int64_t>(
                       mantissa.find_first_not_of('0', 2));
    std::int64_t exponent = 0;
    if (e < token.size()) {
        const char *first = token.data() + e + 1;
        first += *first == '+' ? 1 : 0;
        // An exponent beyond int64 decides the magnitude alone.
        constexpr std::int64_t kHuge = std::int64_t{1} << 62;
        if (std::from_chars(first, token.data() + token.size(), exponent)
                .ec != std::errc{})
            exponent = *first == '-' ? -kHuge : kHuge;
    }
    const double magnitude = lead + exponent >= 0
                                 ? std::numeric_limits<double>::infinity()
                                 : 0.0;
    return negative ? -magnitude : magnitude;
}

} // namespace

/**
 * Recursive-descent RFC-8259 parser. One instance per document. It
 * keeps the line number and the offset where that line starts; a
 * column is worked out only when a value or an error records it, so
 * the scan itself touches each byte once. Every parsed value carries
 * its source position.
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
        JsonValue root;
        parseValue(root, 0);
        skipWhitespace();
        if (pos_ != text_.size())
            error("trailing garbage after the JSON document");
        return root;
    }

  private:
    static constexpr int kMaxDepth = 200; ///< nesting guard

    /**
     * Member room a non-empty object starts with: enough for every
     * object this tree reads (a result line's 4, a point's 13, the
     * metrics' 9), so their members are not moved as they arrive.
     */
    static constexpr std::size_t kObjectMembers = 16;

    /** 1-based column of pos_: bytes since the line started, plus 1. */
    int column() const { return static_cast<int>(pos_ - lineStart_) + 1; }

    [[noreturn]] void error(const std::string &what) const
    {
        fatal(source_ + ":" + std::to_string(line_) + ":" +
              std::to_string(column()) + ": " + what);
    }

    bool atEnd() const { return pos_ >= text_.size(); }

    /** True when the next byte is @p want (false at the end). */
    bool next(char want) const { return !atEnd() && text_[pos_] == want; }

    bool nextIsDigit() const { return !atEnd() && isDigit(text_[pos_]); }

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
            lineStart_ = pos_;
        }
        return ch;
    }

    void expect(char want, const char *context)
    {
        if (!next(want))
            error(std::string("expected '") + want + "' " + context);
        advance();
    }

    void skipWhitespace()
    {
        for (; !atEnd(); ++pos_) {
            const char ch = text_[pos_];
            if (ch == '\n') {
                ++line_;
                lineStart_ = pos_ + 1;
            } else if (ch != ' ' && ch != '\t' && ch != '\r') {
                break;
            }
        }
    }

    void skipDigits()
    {
        while (nextIsDigit())
            ++pos_;
    }

    /** Consume a fixed keyword (true/false/null). */
    void literal(const char *word)
    {
        for (const char *p = word; *p != '\0'; ++p) {
            if (!next(*p))
                error(std::string("invalid literal (expected '") +
                      word + "')");
            ++pos_;
        }
    }

    void parseValue(JsonValue &v, int depth)
    {
        if (depth > kMaxDepth)
            error("nesting deeper than 200 levels");
        skipWhitespace();
        v.line_ = line_;
        v.column_ = column();
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
            parseString(v.string_);
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
            if (ch == '-' || isDigit(ch)) {
                v.kind_ = JsonValue::Kind::Number;
                v.number_ = parseNumber();
            } else {
                error(std::string("unexpected character '") + ch + "'");
            }
        }
    }

    /**
     * Members and items are parsed in place, at the vector's end; an
     * object's vector starts with room for kObjectMembers.
     */
    void parseObject(JsonValue &v, int depth)
    {
        v.kind_ = JsonValue::Kind::Object;
        expect('{', "to open an object");
        skipWhitespace();
        if (next('}')) {
            advance();
            return;
        }
        v.members_.reserve(kObjectMembers);
        for (;;) {
            skipWhitespace();
            if (!next('"'))
                error("expected a quoted member name");
            JsonValue::Member &member = v.members_.emplace_back();
            parseString(member.first);
            skipWhitespace();
            expect(':', "after the member name");
            parseValue(member.second, depth + 1);
            skipWhitespace();
            const char sep = peek();
            if (sep == ',') {
                advance();
                continue;
            }
            if (sep == '}') {
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
        if (next(']')) {
            advance();
            return;
        }
        for (;;) {
            parseValue(v.items_.emplace_back(), depth + 1);
            skipWhitespace();
            const char sep = peek();
            if (sep == ',') {
                advance();
                continue;
            }
            if (sep == ']') {
                advance();
                return;
            }
            error("expected ',' or ']' in an array");
        }
    }

    /** Append the string at pos_ to @p out: plain runs in one go. */
    void parseString(std::string &out)
    {
        expect('"', "to open a string");
        for (;;) {
            const std::size_t run = pos_;
            while (!atEnd() && isPlain(text_[pos_]))
                ++pos_;
            out.append(text_.data() + run, pos_ - run);
            const char ch = advance();
            if (ch == '"')
                return;
            if (static_cast<unsigned char>(ch) < 0x20)
                error("unescaped control character in a string");
            const char esc = advance(); // ch is the backslash
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

    /**
     * Check the number grammar, then read the token in place with
     * from_chars, which rounds as strtod does without reading the
     * locale. Out of range, from_chars leaves the value alone; strtod
     * would give the signed infinity or zero, and so does outOfRange.
     */
    double parseNumber()
    {
        const std::size_t start = pos_;
        if (next('-'))
            ++pos_;
        if (!nextIsDigit())
            error("invalid number");
        if (next('0'))
            ++pos_; // leading zero: no further integer digits
        else
            skipDigits();
        if (next('.')) {
            ++pos_;
            if (!nextIsDigit())
                error("digit required after the decimal point");
            skipDigits();
        }
        if (next('e') || next('E')) {
            ++pos_;
            if (next('+') || next('-'))
                ++pos_;
            if (!nextIsDigit())
                error("digit required in the exponent");
            skipDigits();
        }
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        double value = 0.0;
        const std::from_chars_result r = std::from_chars(first, last, value);
        if (r.ec == std::errc::result_out_of_range)
            return outOfRange({first, pos_ - start});
        return value;
    }

    std::string_view text_;
    const std::string &source_;
    std::size_t pos_ = 0;
    int line_ = 1;
    std::size_t lineStart_ = 0; ///< offset of the current line's first byte
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
