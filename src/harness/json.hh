/**
 * @file
 * Minimal streaming JSON writer for machine-readable experiment
 * output (the BENCH_*.json files).
 *
 * The writer emits members in exactly the order they are written and
 * formats numbers deterministically, so two runs that record the same
 * aggregates produce byte-identical files — the property the harness
 * determinism tests assert across thread counts.
 */

#ifndef LLCF_HARNESS_JSON_HH
#define LLCF_HARNESS_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hh"

namespace llcf {

/**
 * Append-only JSON document builder.
 *
 * Usage: beginObject()/key()/value() calls mirroring the document
 * structure; commas and indentation are inserted automatically.
 * Structural misuse (e.g. a value without a key inside an object)
 * trips a panic — documents are built by trusted experiment code.
 */
class JsonWriter
{
  public:
    JsonWriter();

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Member key; must be inside an object. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(bool v);
    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }

    /** Explicit JSON null. */
    JsonWriter &null();

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    member(std::string_view k, T v)
    {
        key(k);
        return value(v);
    }

    /** Finished document. @pre all containers closed */
    const std::string &str() const;

  private:
    enum class Frame { Object, Array };

    /** Comma/newline/indent before the next element as needed. */
    void prepareValue();

    void indent();

    std::string out_;
    std::vector<Frame> stack_;
    std::vector<bool> hasElems_; //!< parallel to stack_
    bool keyPending_ = false;
};

/**
 * A parsed JSON value.  Object members preserve document order, the
 * property the deterministic writer above guarantees, so a
 * write-parse round trip is order-faithful.  Used by the perf gate
 * (bench_hotpath --smoke) to read checked-in BENCH_*.json baselines.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isNumber() const { return kind_ == Kind::Number; }

    /** Numeric value. @pre isNumber() (panics otherwise) */
    double asNumber() const;

    /** Boolean value. @pre kind() == Bool */
    bool asBool() const;

    /** String value. @pre kind() == String */
    const std::string &asString() const;

    /** Array elements. @pre isArray() */
    const std::vector<JsonValue> &items() const;

    /** Object members in document order. @pre isObject() */
    const std::vector<std::pair<std::string, JsonValue>> &members() const;

    /** Object member by key, or nullptr. @pre isObject() */
    const JsonValue *find(std::string_view key) const;

    /**
     * Walk a path of object keys, e.g. find("metrics", "mean").
     * Returns nullptr as soon as a key is missing or a non-object is
     * traversed.
     */
    template <typename... Rest>
    const JsonValue *
    find(std::string_view key, Rest... rest) const
    {
        const JsonValue *v = find(key);
        return v ? v->find(rest...) : nullptr;
    }

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Parse a complete JSON document (object/array/scalar with only
 * trailing whitespace after it).
 *
 * @return true and fills @p out on success; false and fills @p error
 *         (when non-null) with a position-annotated message otherwise.
 */
bool parseJson(std::string_view text, JsonValue &out,
               std::string *error = nullptr);

/**
 * Read and parse a JSON file (e.g. a checked-in BENCH_*.json
 * baseline a CI gate compares against).
 *
 * @return true and fills @p out on success; false and fills @p error
 *         (when non-null) with an "unreadable file" or parse message
 *         otherwise.
 */
bool loadJsonFile(const std::string &path, JsonValue &out,
                  std::string *error = nullptr);

/**
 * Read a non-negative integral count no larger than 2^53 (the range a
 * JSON number carries exactly) from member @p key of @p obj.
 * @return false (and fills @p error) when it is missing, not a
 *         number, fractional, negative or too large.
 */
bool jsonCountField(const JsonValue &obj, const char *key,
                    std::uint64_t &out, std::string *error);

/**
 * The string member @p key of @p obj, or nullptr (filling @p error)
 * when it is missing or not a string.
 */
const std::string *jsonStringField(const JsonValue &obj, const char *key,
                                   std::string *error);

/** JSON string escaping (control chars, quote, backslash). */
std::string jsonEscape(std::string_view s);

/**
 * Serialise a StreamingStats aggregate the way every BENCH_*.json
 * stores one: {count, mean, stddev, min, p10, median, p90, max}.
 * An *empty* aggregate — e.g. the bit-error rate of an all-miss
 * end-to-end run — keeps count (0) and writes explicit nulls for
 * mean/stddev while omitting the order statistics, so no NaN or
 * garbage quantile ever reaches a JSON document.
 */
void writeStatsObject(JsonWriter &w, const StreamingStats &stats);

/**
 * Format a double the way the harness stores it: shortest form that
 * round-trips ("%.17g" collapsed when fewer digits suffice), with
 * non-finite values mapped to null per JSON rules.
 */
std::string jsonNumber(double v);

} // namespace llcf

#endif // LLCF_HARNESS_JSON_HH
