#include "bench_common.hh"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "harness/thread_pool.hh"

namespace llcf {
namespace {

[[noreturn]] void
printUsageAndExit(const char *prog, int code)
{
    std::FILE *out = code == 0 ? stdout : stderr;
    std::fprintf(out,
                 "usage: %s [--seed=N] [--trials=N] [--threads=N]\n"
                 "          [--json-out=PATH] [--full-scale] "
                 "[--counters]\n"
                 "          [bench-specific flags]\n",
                 prog);
    std::exit(code);
}

/** "--flag=value" -> setenv(env, value); true if consumed. */
bool
consumeEnvFlag(const std::string &arg, const char *flag,
               const char *env, const char *prog)
{
    const std::size_t n = std::strlen(flag);
    if (arg.compare(0, n, flag) != 0)
        return false;
    if (arg.size() == n || arg[n] != '=')
        return false;
    if (arg.size() == n + 1) {
        std::fprintf(stderr, "%s: %s needs a value\n", prog, flag);
        printUsageAndExit(prog, 2);
    }
    setenv(env, arg.c_str() + n + 1, 1);
    return true;
}

} // namespace

std::vector<std::string>
benchParseArgs(int argc, char **argv)
{
    const char *prog = argc > 0 ? argv[0] : "bench";
    std::vector<std::string> extra;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            printUsageAndExit(prog, 0);
        if (arg == "--full-scale") {
            setenv("LLCF_FULL_SCALE", "1", 1);
            continue;
        }
        if (arg == "--counters") {
            setenv("LLCF_COUNTERS", "1", 1);
            continue;
        }
        if (consumeEnvFlag(arg, "--seed", "LLCF_SEED", prog) ||
            consumeEnvFlag(arg, "--trials", "LLCF_TRIALS", prog) ||
            consumeEnvFlag(arg, "--threads", "LLCF_THREADS", prog) ||
            consumeEnvFlag(arg, "--json-out", "LLCF_JSON_OUT", prog)) {
            continue;
        }
        extra.push_back(arg);
    }
    return extra;
}

bool
benchRejectExtraArgs(const std::vector<std::string> &extra)
{
    if (extra.empty())
        return true;
    for (const auto &arg : extra)
        std::fprintf(stderr, "unrecognised argument: %s\n", arg.c_str());
    return false;
}

void
benchPrintHeader(const char *title)
{
    std::printf("%s (harness: %u threads, seed %llu)\n", title,
                resolveThreadCount(),
                static_cast<unsigned long long>(baseSeed()));
}

int
benchWriteSuite(const ExperimentSuite &suite)
{
    const std::string path = suite.writeFile();
    if (path.empty()) {
        std::fprintf(stderr, "failed to write JSON output\n");
        return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

bool
benchLoadBaseline(const std::string &path, JsonValue &doc)
{
    std::string err;
    if (!loadJsonFile(path, doc, &err)) {
        std::fprintf(stderr, "baseline: %s\n", err.c_str());
        return false;
    }
    const JsonValue *list = doc.find("benchmarks");
    if (!list || !list->isArray()) {
        std::fprintf(stderr, "baseline %s: no benchmarks array\n",
                     path.c_str());
        return false;
    }
    std::size_t i = 0;
    for (const JsonValue &b : list->items()) {
        const JsonValue *name = b.isObject() ? b.find("name") : nullptr;
        const JsonValue *trials = b.isObject() ? b.find("trials") : nullptr;
        const char *why = nullptr;
        if (!b.isObject())
            why = "is not an object";
        else if (!name || name->kind() != JsonValue::Kind::String)
            why = "has no string \"name\"";
        else if (!trials || !trials->isNumber() ||
                 trials->asNumber() < 1.0 ||
                 trials->asNumber() != std::floor(trials->asNumber()))
            why = "has no whole \"trials\" count >= 1";
        if (why) {
            std::fprintf(stderr, "baseline %s: benchmarks[%zu] %s\n",
                         path.c_str(), i, why);
            return false;
        }
        ++i;
    }
    return true;
}

bool
benchBaselineTolerance(const JsonValue &doc, const std::string &path,
                       const char *key, double def, double &tol)
{
    const JsonValue *t = doc.find("context", key);
    if (!t) {
        tol = def;
        return true;
    }
    if (!t->isNumber() || !(t->asNumber() >= 0.0)) {
        std::fprintf(stderr,
                     "baseline %s: context.%s is not a number >= 0\n",
                     path.c_str(), key);
        return false;
    }
    tol = t->asNumber();
    return true;
}

const JsonValue *
benchBaselineEntry(const JsonValue &doc, const std::string &name)
{
    const JsonValue *list = doc.find("benchmarks");
    if (!list || !list->isArray())
        return nullptr;
    for (const JsonValue &b : list->items()) {
        const JsonValue *bn = b.find("name");
        if (bn && bn->kind() == JsonValue::Kind::String &&
            bn->asString() == name) {
            return &b;
        }
    }
    return nullptr;
}

} // namespace llcf
