#include "json.hh"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/log.hh"

namespace llcf {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
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
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    // Integers in the exactly-representable range print without an
    // exponent ("100", not "1e+02").
    if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    // Try successively longer forms until one round-trips exactly;
    // this keeps common values short (0.5, 100) yet never loses bits.
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(buf, "%lf", &back);
        if (back == v)
            break;
    }
    return buf;
}

JsonWriter::JsonWriter() = default;

void
JsonWriter::indent()
{
    out_ += '\n';
    out_.append(stack_.size() * 2, ' ');
}

void
JsonWriter::prepareValue()
{
    if (stack_.empty()) {
        if (!out_.empty())
            panic("JsonWriter: multiple top-level values");
        return;
    }
    if (stack_.back() == Frame::Object) {
        if (!keyPending_)
            panic("JsonWriter: object member written without a key");
        keyPending_ = false;
        return; // key() already placed comma and indent
    }
    if (hasElems_.back())
        out_ += ',';
    hasElems_.back() = true;
    indent();
}

JsonWriter &
JsonWriter::beginObject()
{
    prepareValue();
    out_ += '{';
    stack_.push_back(Frame::Object);
    hasElems_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (stack_.empty() || stack_.back() != Frame::Object || keyPending_)
        panic("JsonWriter: mismatched endObject");
    bool had = hasElems_.back();
    stack_.pop_back();
    hasElems_.pop_back();
    if (had)
        indent();
    out_ += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    prepareValue();
    out_ += '[';
    stack_.push_back(Frame::Array);
    hasElems_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (stack_.empty() || stack_.back() != Frame::Array)
        panic("JsonWriter: mismatched endArray");
    bool had = hasElems_.back();
    stack_.pop_back();
    hasElems_.pop_back();
    if (had)
        indent();
    out_ += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    if (stack_.empty() || stack_.back() != Frame::Object || keyPending_)
        panic("JsonWriter: key outside an object");
    if (hasElems_.back())
        out_ += ',';
    hasElems_.back() = true;
    indent();
    out_ += '"';
    out_ += jsonEscape(k);
    out_ += "\": ";
    keyPending_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    prepareValue();
    out_ += jsonNumber(v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    prepareValue();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    prepareValue();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    prepareValue();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    prepareValue();
    out_ += '"';
    out_ += jsonEscape(v);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    prepareValue();
    out_ += "null";
    return *this;
}

bool
loadJsonFile(const std::string &path, JsonValue &out,
             std::string *error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (error)
            *error = "cannot read " + path;
        return false;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    const bool read_ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!read_ok) {
        if (error)
            *error = "error reading " + path;
        return false;
    }
    std::string parse_error;
    if (!parseJson(text, out, &parse_error)) {
        if (error)
            *error = path + ": " + parse_error;
        return false;
    }
    return true;
}

namespace {

bool
jsonFail(std::string *error, std::string why)
{
    if (error)
        *error = std::move(why);
    return false;
}

} // namespace

bool
jsonCountField(const JsonValue &obj, const char *key, std::uint64_t &out,
               std::string *error)
{
    // 2^53: beyond it doubles skip integers, so no writer emits more.
    constexpr double kMaxCount = 9007199254740992.0;
    const JsonValue *v = obj.find(key);
    if (!v || !v->isNumber())
        return jsonFail(error, std::string("field '") + key +
                                   "' is missing or not a number");
    const double x = v->asNumber();
    if (!(x >= 0.0 && x <= kMaxCount) || x != std::floor(x))
        return jsonFail(error, std::string("field '") + key +
                                   "' is not a count in [0, 2^53]");
    out = static_cast<std::uint64_t>(x);
    return true;
}

const std::string *
jsonStringField(const JsonValue &obj, const char *key, std::string *error)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind() != JsonValue::Kind::String) {
        jsonFail(error, std::string("field '") + key +
                            "' is missing or not a string");
        return nullptr;
    }
    return &v->asString();
}

void
writeStatsObject(JsonWriter &w, const StreamingStats &stats)
{
    w.beginObject();
    w.member("count", static_cast<std::uint64_t>(stats.count()));
    if (stats.empty()) {
        // No samples: moments and quantiles do not exist.  count: 0
        // plus explicit nulls keeps the object shape machine-checkable
        // without ever serialising NaN (invalid JSON) or a garbage 0.
        w.key("mean").null();
        w.key("stddev").null();
    } else {
        w.member("mean", stats.mean());
        w.member("stddev", stats.stddev());
        w.member("min", stats.min());
        w.member("p10", stats.percentile(10.0));
        w.member("median", stats.median());
        w.member("p90", stats.percentile(90.0));
        w.member("max", stats.max());
    }
    w.endObject();
}

const std::string &
JsonWriter::str() const
{
    if (!stack_.empty())
        panic("JsonWriter: document has unclosed containers");
    return out_;
}

// ------------------------------------------------------------ parsing

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::Number)
        panic("JsonValue: asNumber on non-number");
    return num_;
}

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        panic("JsonValue: asBool on non-bool");
    return bool_;
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        panic("JsonValue: asString on non-string");
    return str_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (kind_ != Kind::Array)
        panic("JsonValue: items on non-array");
    return items_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (kind_ != Kind::Object)
        panic("JsonValue: members on non-object");
    return members_;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

/**
 * Recursive-descent parser over the JSON subset the deterministic
 * writer emits (which is plain standard JSON; no extensions).
 */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    bool
    parse(JsonValue &out, std::string *error)
    {
        bool ok = parseValue(out) && (skipWs(), pos_ == text_.size());
        if (!ok && error) {
            *error = "JSON parse error near offset " +
                     std::to_string(pos_) + ": " + err_;
        }
        return ok;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    fail(const char *what)
    {
        if (err_.empty())
            err_ = what;
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("unknown literal");
        pos_ += word.size();
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out += esc;
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
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // The writer only escapes control characters, which
                // are single-byte; encode the general case as UTF-8.
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default:
                return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            return fail("expected number");
        const std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail("malformed number");
        out.kind_ = JsonValue::Kind::Number;
        out.num_ = v;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            out.kind_ = JsonValue::Kind::Object;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (pos_ >= text_.size() || text_[pos_++] != ':')
                    return fail("expected ':'");
                JsonValue v;
                if (!parseValue(v))
                    return false;
                out.members_.emplace_back(std::move(key), std::move(v));
                skipWs();
                if (pos_ >= text_.size())
                    return fail("unterminated object");
                const char d = text_[pos_++];
                if (d == '}')
                    return true;
                if (d != ',')
                    return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos_;
            out.kind_ = JsonValue::Kind::Array;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                JsonValue v;
                if (!parseValue(v))
                    return false;
                out.items_.push_back(std::move(v));
                skipWs();
                if (pos_ >= text_.size())
                    return fail("unterminated array");
                const char d = text_[pos_++];
                if (d == ']')
                    return true;
                if (d != ',')
                    return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            std::string str;
            if (!parseString(str))
                return false;
            out.kind_ = JsonValue::Kind::String;
            out.str_ = std::move(str);
            return true;
        }
        if (c == 't') {
            if (!literal("true"))
                return false;
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = true;
            return true;
        }
        if (c == 'f') {
            if (!literal("false"))
                return false;
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = false;
            return true;
        }
        if (c == 'n') {
            if (!literal("null"))
                return false;
            out.kind_ = JsonValue::Kind::Null;
            return true;
        }
        return parseNumber(out);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::string err_;
};

bool
parseJson(std::string_view text, JsonValue &out, std::string *error)
{
    out = JsonValue{};
    return JsonParser(text).parse(out, error);
}

} // namespace llcf
