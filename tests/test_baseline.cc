/**
 * @file
 * A randomized mutation loop over the bench baseline loader
 * (bench/bench_common.cc): fixed-seed mutants of a committed
 * BENCH_*.json go through benchLoadBaseline, benchBaselineTolerance
 * and benchBaselineEntry exactly as bench_suite's --baseline gate
 * feeds them.  Every mutant must be accepted with a usable shape or
 * rejected with a message; none may crash (the sanitize build runs
 * this loop under ASan/UBSan).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "harness/json.hh"
#include "json_mutants.hh"

namespace llcf {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** The cell names and trial counts of a baseline, in document order. */
std::vector<std::pair<std::string, double>>
cellsOf(const JsonValue &doc)
{
    std::vector<std::pair<std::string, double>> cells;
    for (const JsonValue &b : doc.find("benchmarks")->items())
        cells.emplace_back(b.find("name")->asString(),
                           b.find("trials")->asNumber());
    return cells;
}

TEST(BaselineLoader, MutatedBaselinesAreAcceptedOrRejectedWithAMessage)
{
    const std::string doc =
        readFile(std::string(LLCF_REPO_ROOT) + "/BENCH_calib.json");
    ASSERT_FALSE(doc.empty());
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(parseJson(doc, parsed, &error)) << error;
    const auto cells = cellsOf(parsed);
    ASSERT_FALSE(cells.empty());

    // Every number, and the ones the loader gates on (trial counts and
    // tolerances), which random picks would rarely hit.
    const auto numbers = numberTokens(doc);
    std::vector<std::pair<std::size_t, std::size_t>> gated;
    for (const auto &tok : numbers) {
        const std::size_t from = tok.first < 20 ? 0 : tok.first - 20;
        const std::string key = doc.substr(from, tok.first - from);
        if (key.find("\"trials\"") != std::string::npos ||
            key.find("tolerance\"") != std::string::npos)
            gated.push_back(tok);
    }
    ASSERT_GE(numbers.size(), 2u);
    ASSERT_FALSE(gated.empty());

    const std::string path = testing::TempDir() + "llcf_baseline_mutant.json";
    Rng rng(20261019);
    const char *const replacements[] = {"-1", "0", "2.5", "\"x\"", "[]",
                                        "{}"};
    std::size_t rejected = 0, accepted = 0;
    for (int k = 0; k < 400; ++k) {
        std::string mutant = doc;
        const int kind = k % 5;
        if (kind == 0) {
            mutant.resize(rng.nextBelow(doc.size()));
        } else if (kind == 1) {
            mutant[rng.nextBelow(doc.size())] ^=
                static_cast<char>(1u << rng.nextBelow(8));
        } else if (kind == 2) {
            // Swap two number tokens, the later one first so the
            // earlier one's offset stays valid.
            auto a = numbers[rng.nextBelow(numbers.size())];
            auto b = numbers[rng.nextBelow(numbers.size())];
            if (a.first > b.first)
                std::swap(a, b);
            const std::string na = doc.substr(a.first, a.second);
            const std::string nb = doc.substr(b.first, b.second);
            mutant.replace(b.first, b.second, na);
            mutant.replace(a.first, a.second, nb);
        } else if (kind == 3) {
            const auto &pool = rng.nextBelow(2) ? gated : numbers;
            const auto [at, len] = pool[rng.nextBelow(pool.size())];
            const auto pick = rng.nextBelow(std::size(replacements));
            mutant.replace(at, len, replacements[pick]);
        } else {
            mutant = shuffledJson(parsed, rng);
        }
        SCOPED_TRACE(testing::Message() << "mutant " << k);
        {
            std::FILE *f = std::fopen(path.c_str(), "wb");
            ASSERT_NE(f, nullptr);
            std::fwrite(mutant.data(), 1, mutant.size(), f);
            std::fclose(f);
        }

        testing::internal::CaptureStderr();
        JsonValue loaded;
        double rateTol = -1.0, cyclesTol = -1.0;
        const bool ok =
            benchLoadBaseline(path, loaded) &&
            benchBaselineTolerance(loaded, path, "rate_tolerance", 0.25,
                                   rateTol) &&
            benchBaselineTolerance(loaded, path, "cycles_tolerance", 0.25,
                                   cyclesTol);
        const std::string message = testing::internal::GetCapturedStderr();
        if (kind == 4) {
            EXPECT_TRUE(ok) << "reordered keys: " << message;
        }
        if (!ok) {
            EXPECT_NE(message.find("baseline"), std::string::npos)
                << "rejected without a message: " << message;
            ++rejected;
            continue;
        }
        ++accepted;
        EXPECT_TRUE(message.empty()) << message;
        EXPECT_TRUE(std::isfinite(rateTol) && rateTol >= 0.0);
        EXPECT_TRUE(std::isfinite(cyclesTol) && cyclesTol >= 0.0);
        // An accepted document must serve every lookup the gate makes:
        // each cell it names resolves to itself, an unknown one to
        // nullptr.
        for (const auto &[name, trials] : cellsOf(loaded)) {
            const JsonValue *entry = benchBaselineEntry(loaded, name);
            ASSERT_NE(entry, nullptr) << name;
            EXPECT_EQ(entry->find("name")->asString(), name);
            EXPECT_GE(trials, 1.0);
        }
        EXPECT_EQ(benchBaselineEntry(loaded, "no-such-cell"), nullptr);
        if (kind == 4) {
            EXPECT_EQ(cellsOf(loaded), cells);
        }
    }
    std::remove(path.c_str());
    // Both outcomes must be exercised, or the loop tests nothing.
    EXPECT_GT(rejected, 100u);
    EXPECT_GT(accepted, 100u);
}

} // namespace
} // namespace llcf
