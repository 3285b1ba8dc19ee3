/**
 * @file
 * Test support for the JSON mutation tests (the parser's and the
 * checkpoint loader's): where a document's number tokens sit, and the
 * document re-serialised with every object's members shuffled.
 */

#ifndef LLCF_TESTS_JSON_MUTANTS_HH
#define LLCF_TESTS_JSON_MUTANTS_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "harness/json.hh"

namespace llcf {

/** Start and length of each number token of the writer's output
    (numbers follow a space or an opening bracket). */
inline std::vector<std::pair<std::size_t, std::size_t>>
numberTokens(const std::string &doc)
{
    std::vector<std::pair<std::size_t, std::size_t>> numbers;
    for (std::size_t i = 1; i < doc.size(); ++i) {
        const char c = doc[i];
        if ((c == '-' || (c >= '0' && c <= '9')) &&
            (doc[i - 1] == ' ' || doc[i - 1] == '[')) {
            const std::size_t end =
                doc.find_first_not_of("-+.eE0123456789", i);
            numbers.emplace_back(i, end - i);
            i = end;
        }
    }
    return numbers;
}

/** @p v as JSON text with every object's members shuffled. */
inline std::string
shuffledJson(const JsonValue &v, Rng &rng)
{
    // Built by appending: once this is inlined, GCC 12 reports a false
    // -Wrestrict on "literal" + std::string temporaries.
    std::string out;
    switch (v.kind()) {
      case JsonValue::Kind::Object: {
        std::vector<std::size_t> order(v.members().size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.nextBelow(i)]);
        out += '{';
        for (std::size_t i : order) {
            const auto &[key, member] = v.members()[i];
            if (out.size() > 1)
                out += ',';
            out += '"';
            out += jsonEscape(key);
            out += "\":";
            out += shuffledJson(member, rng);
        }
        return out += '}';
      }
      case JsonValue::Kind::Array:
        out += '[';
        for (const JsonValue &item : v.items()) {
            if (out.size() > 1)
                out += ',';
            out += shuffledJson(item, rng);
        }
        return out += ']';
      case JsonValue::Kind::Number:
        return jsonNumber(v.asNumber());
      case JsonValue::Kind::String:
        out += '"';
        out += jsonEscape(v.asString());
        return out += '"';
      case JsonValue::Kind::Bool:
        return v.asBool() ? "true" : "false";
      case JsonValue::Kind::Null:
        break;
    }
    return "null";
}

} // namespace llcf

#endif // LLCF_TESTS_JSON_MUTANTS_HH
