/**
 * @file
 * Tests for the detlint determinism linter (tools/detlint/).
 *
 * The fixture corpus in tests/detlint_fixtures/ holds one positive
 * and one negative file per rule; the corpus test asserts the EXACT
 * per-(file, rule) finding counts, so a rule that stops firing, or
 * starts over-firing, fails loudly.  The remaining tests pin the
 * suppression and config-allowlist machinery from both directions,
 * and the final test runs the real repo configuration over the real
 * tree — the same check scripts/run_static_analysis.sh and the CI
 * static-analysis job enforce.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "detlint.hh"

namespace llcf::detlint {
namespace {

namespace fs = std::filesystem;

const std::string kFixtures = LLCF_DETLINT_FIXTURES;
const std::string kRepoRoot = LLCF_REPO_ROOT;

Config
fixtureConfig()
{
    std::string err;
    auto cfg = Config::load(kFixtures + "/fixtures.conf", err);
    EXPECT_TRUE(cfg) << err;
    return cfg ? *cfg : Config{};
}

std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> out;
    for (const auto &e : fs::directory_iterator(kFixtures)) {
        const std::string ext = e.path().extension().string();
        if (ext == ".cc" || ext == ".hh")
            out.push_back(e.path().filename().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

using CountMap = std::map<std::pair<std::string, std::string>, int>;

CountMap
countByFileRule(const std::vector<Finding> &findings)
{
    CountMap m;
    for (const Finding &f : findings)
        ++m[{f.path, f.rule}];
    return m;
}

TEST(Detlint, FixtureCorpusExactCounts)
{
    const auto findings =
        analyzeFiles(kFixtures, corpusFiles(), fixtureConfig());
    const CountMap got = countByFileRule(findings);

    const CountMap want = {
        {{"rand_bad.cc", "rand"}, 3},
        {{"wallclock_bad.cc", "wallclock"}, 3},
        {{"getenv_bad.cc", "getenv"}, 1},
        {{"float_format_bad.cc", "float-format"}, 6},
        {{"thread_id_bad.cc", "thread-id"}, 3},
        {{"header_guard_bad.hh", "header-guard"}, 2},
        {{"include_bad.cc", "include"}, 3},
        {{"doc_comment_bad.hh", "doc-comment"}, 3},
        {{"unordered_iter_bad.cc", "unordered-iter"}, 3},
        {{"suppression_bad.cc", "suppression"}, 3},
        {{"suppression_bad.cc", "rand"}, 1},
    };

    // Map equality asserts both directions at once: every positive
    // fixture fires exactly as specified, and every *_good fixture
    // (absent from `want`) produces zero findings.
    EXPECT_EQ(got, want) << [&] {
        std::string all;
        for (const Finding &f : findings) {
            all += f.path + ":" + std::to_string(f.line) + ": [" +
                   f.rule + "] " + f.message + "\n";
        }
        return all;
    }();
}

TEST(Detlint, JustifiedSuppressionSilences)
{
    const auto findings = analyzeFiles(
        kFixtures, {"suppression_good.cc"}, fixtureConfig());
    EXPECT_TRUE(findings.empty());
}

TEST(Detlint, UnjustifiedSuppressionDoesNotSilence)
{
    const auto findings = analyzeFiles(
        kFixtures, {"suppression_bad.cc"}, fixtureConfig());
    int rand_findings = 0;
    for (const Finding &f : findings)
        rand_findings += f.rule == "rand";
    EXPECT_EQ(rand_findings, 1);
}

TEST(Detlint, ConfigAllowanceSilencesFile)
{
    const auto with_conf = analyzeFiles(
        kFixtures, {"allowed_rand.cc"}, fixtureConfig());
    EXPECT_TRUE(with_conf.empty());

    // Without the allowance the same file must fire — proof the
    // conf entry, not the fixture, silences it.
    const auto without =
        analyzeFiles(kFixtures, {"allowed_rand.cc"}, Config{});
    ASSERT_EQ(without.size(), 1u);
    EXPECT_EQ(without[0].rule, "rand");
}

TEST(Detlint, ConfigRejectsUnknownRule)
{
    std::string err;
    const auto cfg = Config::load(kFixtures + "/bad.conf", err);
    EXPECT_FALSE(cfg);
    EXPECT_NE(err.find("nosuchrule"), std::string::npos);
}

TEST(Detlint, UnorderedIterRequiresReachability)
{
    // debugDump iterates a hash map but nothing reaches it: clean.
    const auto clean = analyzeFiles(
        kFixtures, {"unordered_iter_good.cc"}, fixtureConfig());
    EXPECT_TRUE(clean.empty());

    // Making debugDump itself a root flips the verdict.
    Config cfg = fixtureConfig();
    cfg.rootFuncs.insert("debugDump");
    const auto rooted = analyzeFiles(
        kFixtures, {"unordered_iter_good.cc"}, cfg);
    ASSERT_EQ(rooted.size(), 1u);
    EXPECT_EQ(rooted[0].rule, "unordered-iter");
}

TEST(Detlint, RuleNamesStable)
{
    EXPECT_EQ(ruleNames().size(), 10u);
}

TEST(Detlint, RepoIsClean)
{
    std::string err;
    const auto cfg =
        Config::load(kRepoRoot + "/tools/detlint/detlint.conf", err);
    ASSERT_TRUE(cfg) << err;

    std::vector<std::string> files;
    for (const char *top : {"src", "bench", "tests"}) {
        for (const auto &e : fs::recursive_directory_iterator(
                 fs::path(kRepoRoot) / top)) {
            if (!e.is_regular_file())
                continue;
            const std::string ext = e.path().extension().string();
            if (ext != ".cc" && ext != ".hh")
                continue;
            files.push_back(
                fs::relative(e.path(), kRepoRoot).generic_string());
        }
    }
    std::sort(files.begin(), files.end());
    // One bench_suite driver replacing five left 159 lintable
    // files; pin a floor so a broken directory walk (silently
    // skipping whole subtrees) can't masquerade as a clean repo.
    EXPECT_GE(files.size(), 159u);

    const auto findings = analyzeFiles(kRepoRoot, files, *cfg);
    std::string all;
    for (const Finding &f : findings) {
        all += f.path + ":" + std::to_string(f.line) + ": [" + f.rule +
               "] " + f.message + "\n";
    }
    EXPECT_TRUE(findings.empty()) << all;
}

} // namespace
} // namespace llcf::detlint
