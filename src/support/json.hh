/**
 * @file
 * The one JSON codec: a small DOM (Json) with its reader and writer,
 * plus the escapers every hand-written emitter shares.
 *
 * The DOM covers objects, arrays, strings, numbers, booleans and null.
 * Numbers round-trip bit-exactly ("%.17g"). As an extension the DOM
 * writes NaN and infinity as bare nan/inf/-inf tokens and reads them
 * back, since cached measurements may carry NaN analytic traffic;
 * strict-JSON emitters use jsonNumber(), which writes null instead.
 *
 * The reader is safe on untrusted input: nesting deeper than
 * Json::kMaxDepth is rejected, not recursed into, and it decodes the
 * standard escapes (\" \\ \/ \b \f \n \r \t \uXXXX, surrogate pairs to
 * UTF-8). For older spill lines it also accepts raw control bytes
 * inside strings.
 */

#ifndef RFL_SUPPORT_JSON_HH
#define RFL_SUPPORT_JSON_HH

#include <string>
#include <utility>
#include <vector>

namespace rfl
{

/** Minimal JSON value (see file comment). */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** Deepest nesting the reader accepts; ours nest about 5 levels. */
    static constexpr int kMaxDepth = 64;

    Json() = default;

    static Json makeBool(bool v);
    static Json makeNumber(double v);
    static Json makeString(std::string v);
    static Json makeArray();
    static Json makeObject();

    Kind kind() const { return kind_; }

    /** @name Typed accessors; panic on kind mismatch. */
    ///@{
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<Json> &asArray() const;
    ///@}

    /** Append to an array value. */
    void push(Json v);

    /** Set an object member. */
    void set(const std::string &key, Json v);

    /** @return the last member @p key; fatal() when absent. */
    const Json &at(const std::string &key) const;

    /** @return true when the object has member @p key. */
    bool has(const std::string &key) const;

    /** Render compactly (stable member order: insertion order). */
    std::string dump() const;

    /** Parse one JSON document; fatal() on malformed input. */
    static Json parse(const std::string &text);

    /**
     * Non-fatal parse: @return whether @p text parsed, filling @p out.
     * Used wherever the text comes from outside the process: the cache
     * loader skips corrupt spill lines (e.g. an append truncated by a
     * crash) instead of refusing to start, the service answers 400.
     */
    static bool tryParse(const std::string &text, Json *out);

  private:
    class Parser;

    explicit Json(Kind kind) : kind_(kind) {}

    void dumpTo(std::string &out) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    /** Insertion-ordered members (keys + parallel values). */
    std::vector<std::pair<std::string, Json>> obj_;
};

/**
 * Escape @p s for embedding in a JSON double-quoted string: quote,
 * backslash, \n, \t and \r get their short escapes, every other
 * control character becomes \u00XX. Other bytes pass through, so UTF-8
 * stays UTF-8.
 */
std::string jsonEscape(const std::string &s);

/** Strict-JSON number: "%.17g" (round-trips), null when non-finite. */
std::string jsonNumber(double v);

/**
 * Escape text for XML/HTML element content and double-quoted
 * attributes (&, <, >, "). Shared by the SVG, HTML and flame-graph
 * emitters so the escaping rules cannot diverge.
 */
std::string escapeXml(const std::string &text);

} // namespace rfl

#endif // RFL_SUPPORT_JSON_HH
