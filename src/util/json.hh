/**
 * @file
 * Dependency-free JSON emission and parsing for the experiment and
 * DSE engines.
 *
 * JsonWriter is a streaming writer with explicit begin/end scopes so
 * the results file is produced in one deterministic pass - no DOM, no
 * allocation-ordering surprises, byte-identical output for identical
 * inputs regardless of how the values were computed. It builds each
 * document in one string and hands it to the stream in one write, or,
 * with no stream, to the caller through take().
 *
 * parseJson is the matching reader: a strict RFC-8259 recursive-descent
 * parser producing a JsonValue tree. Every value remembers its source
 * line/column, and both malformed input and wrong-type access throw
 * cryo::FatalError citing that position, so a bad sweep spec names the
 * offending token instead of failing somewhere downstream. Object
 * members keep their source order (sweep-spec axis order is
 * significant). The reader makes one pass: it copies each run of
 * plain string bytes whole, reads each number in place, and works out
 * a column only where a value or an error records it.
 *
 * Numbers are read with std::from_chars and written with
 * std::to_chars, so both directions are locale-free. A number beyond
 * the double range reads as strtod reads it: the signed infinity, or
 * the signed zero below the smallest subnormal.
 *
 * JSON has no NaN or infinity literals; value(double) emits null for
 * non-finite inputs (the schema documents this).
 */

#ifndef CRYOWIRE_UTIL_JSON_HH
#define CRYOWIRE_UTIL_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cryo
{

/**
 * The first of printf's %.15g, %.16g and %.17g renderings of @p value
 * that parses back to exactly @p value (17 = max_digits10 always
 * does), independent of the process locale. Non-finite values render
 * as "nan" / "inf" / "-inf"; callers that need strict JSON must handle
 * those before formatting (JsonWriter does).
 *
 * One shortest round-trip rendering (to_chars) does the work: for a
 * normal value that is not a power of two, the rung's text is those
 * digits laid out by %g's rule at precision max(15, their count), so
 * only the point is placed and zeros padded. Powers of two (whose
 * rounding interval is narrower below than above) and subnormals
 * (which hold fewer than 15 digits) walk the ladder: the shortest
 * digit count d picks %.15g (d <= 15) or %.17g (d = 17), and only
 * d = 16 renders %.16g and parses it back.
 */
std::string formatDouble(double value);

/**
 * Streaming JSON writer.
 *
 * The writer appends every token to one string and writes it to the
 * stream when the root value closes, so a caller may read the stream
 * right after the last end call. A writer destroyed before then (an
 * exception mid-document) writes what it has; a finished document
 * gets a trailing newline at destruction.
 *
 * Usage:
 * @code
 *   JsonWriter w{out};
 *   w.beginObject();
 *   w.key("name").value("fig02");
 *   w.key("metrics").beginArray();
 *   w.value(1.5);
 *   w.endArray();
 *   w.endObject();
 * @endcode
 *
 * A writer made with no stream renders one compact document for
 * take(), with no stream or locale on the way: a cache record, a
 * result line or a service reply.
 * @code
 *   JsonWriter w;
 *   w.beginObject().key("hash").value(hash).endObject();
 *   return w.take(); // {"hash":"..."}, no newline
 * @endcode
 *
 * Scope misuse (ending the wrong scope, a key outside an object, two
 * keys in a row) is fatal() - a programming error, not a data error.
 */
class JsonWriter
{
  public:
    /** @param indent spaces per nesting level (0 = compact). */
    explicit JsonWriter(std::ostream &out, int indent = 2);

    /** A compact writer with no stream: the document is for take(). */
    JsonWriter();

    /**
     * Writes an unfinished document as far as it got; every scope
     * should be closed before the writer is destroyed. A writer with
     * no stream discards its document.
     */
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Member name inside an object; must precede exactly one value. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(double v);
    JsonWriter &value(std::string_view s);
    JsonWriter &value(const char *s); ///< not bool: a literal is text
    JsonWriter &value(bool b);
    JsonWriter &value(int v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &null();

    /**
     * One value another compact (indent 0) JsonWriter already
     * rendered, appended verbatim: the separator and scope checks run
     * as for any value, so a document can embed a rendering it shares
     * with another document without rendering it twice.
     */
    JsonWriter &raw(std::string_view json);

    /**
     * The finished document of a writer made with no stream, moved
     * out: the string keeps the writer's reserved capacity (640
     * bytes for a shorter document), so a caller that keeps many
     * documents fits them (shrink_to_fit). fatal() unless the root
     * value has closed, and on a writer that writes to a stream.
     */
    std::string take();

    /** Escape @p s per RFC 8259 (quotes not included). */
    static std::string escape(std::string_view s);

  private:
    /** Emit separators/indent before a value or key. */
    void beforeValue(bool is_key);
    /** A newline and the indent of the open scopes (indent > 0). */
    void newline();
    /** After a value: a closed root value goes to the stream. */
    void afterValue();

    struct Scope
    {
        char kind;  ///< '{' or '['
        bool first; ///< no member written yet
    };

    std::ostream *out_; ///< nullptr: the document waits for take()
    std::string buf_;   ///< the document, not yet written to out_
    int indent_;
    std::vector<Scope> stack_;
    bool keyPending_ = false;
    bool done_ = false;
};

/**
 * One parsed JSON value. The tree is immutable after parsing; all
 * accessors are const and wrong-kind access is fatal() with the
 * value's source position, so consumers can chain lookups without
 * hand-writing diagnostics.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /** An object member, in source order. */
    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default; ///< null

    /**
     * Programmatic construction (axis expansion, tests). Values made
     * this way carry position 0:0; diagnostics cite the axis instead.
     */
    static JsonValue makeNumber(double v);
    static JsonValue makeString(std::string s);
    static JsonValue makeBool(bool v);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** 1-based source position of the value's first character. */
    int line() const { return line_; }
    int column() const { return column_; }

    /** The number's value; fatal() unless isNumber(). */
    double asNumber() const;

    /**
     * The number's value when it is a whole number representable as
     * int64; fatal() otherwise (cites the position). Guards count-like
     * spec fields against 2.5 cores.
     */
    std::int64_t asInteger() const;

    /** The string's value; fatal() unless isString(). */
    const std::string &asString() const;

    /** The boolean's value; fatal() unless isBool(). */
    bool asBool() const;

    /** Array elements; fatal() unless isArray(). */
    const std::vector<JsonValue> &items() const;

    /** Object members in source order; fatal() unless isObject(). */
    const std::vector<Member> &members() const;

    /** Member count (object) or element count (array). */
    std::size_t size() const;

    /** Member lookup; nullptr when absent. fatal() unless isObject(). */
    const JsonValue *find(const std::string &key) const;

    /** Member lookup; fatal() naming @p key when absent. */
    const JsonValue &at(const std::string &key) const;

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<Member> members_;
    int line_ = 0;
    int column_ = 0;

    /** fatal() citing this value's position. */
    [[noreturn]] void valueError(const std::string &what) const;
};

/**
 * Parse @p text as one JSON document (trailing whitespace allowed,
 * trailing garbage rejected). @p source names the input in
 * diagnostics ("spec.json"). Malformed input throws cryo::FatalError
 * as "<source>:<line>:<column>: <problem>".
 */
JsonValue parseJson(std::string_view text,
                    const std::string &source = "<json>");

} // namespace cryo

#endif // CRYOWIRE_UTIL_JSON_HH
