#include "micro.hh"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "attack/extractor.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "crypto/ecdsa.hh"
#include "crypto/gf2m.hh"
#include "ml/svm.hh"
#include "noise/profile.hh"
#include "scenario/registry.hh"
#include "signal/welch.hh"
#include "sim/configs.hh"
#include "trace.hh"
#include "victim/victim.hh"

namespace llcf::perfbench {
namespace {

/** Root of every microbenchmark input stream. */
constexpr std::uint64_t kMicroSeed = 0x5eed;

constexpr int kRepetitions = 5;

/** Keeps results observable so no timed work is optimized away. */
volatile std::uint64_t gSink = 0;

void
sink(std::uint64_t v)
{
    gSink = gSink + v;
}

/** One microbenchmark: a body timed over a fixed iteration count. */
struct Micro
{
    const char *name;
    const char *unit;     //!< "ns" or "us"
    std::size_t iterations;
    double opsPerIteration; //!< e.g. lines per batch call
    std::function<void()> body;
    std::vector<double> samples;
};

Gf571
randomElement(Rng &rng)
{
    static const char kHex[] = "0123456789abcdef";
    std::string hex;
    for (int i = 0; i < 128; ++i)
        hex += kHex[rng.next() & 0xf];
    hex[0] = '7'; // nonzero, below the field degree
    return Gf571::fromHex(hex);
}

std::vector<Addr>
mapLines(AddressSpace &as, std::size_t pages)
{
    const Addr base = as.mmapAnon(pages * kPageBytes);
    return as.translateLines(base, pages * kPageBytes);
}

/** Shared fixture state the microbenchmark bodies reference. */
struct Fixtures
{
    Fixtures();

    const ScenarioSpec &evsetSpec;
    const ScenarioSpec &forkSpec;

    Gf571 mulA, mulB, invX;
    Ecdsa keygenEcdsa;
    Ecdsa signEcdsa;
    EcdsaKeyPair signKey;
    Sha256Digest digest;

    Machine victimMachine;
    std::unique_ptr<Victim> victim;
    NonceExtractor extractor;
    std::vector<Cycles> detections;

    std::optional<ScenarioRig> forkRig;
    Machine::Snapshot forkSnap;

    Machine skylake;
    std::unique_ptr<AddressSpace> skylakeSpace;
    Addr hitLine = 0;
    std::vector<Addr> batchLines;

    Machine tiny;
    std::unique_ptr<AddressSpace> tinySpace;
    std::vector<Addr> missLines;
    std::size_t missCursor = 0;

    std::optional<ScenarioRig> evsetRig;
    std::vector<Addr> evCands;
    Addr evTarget = 0;

    std::vector<double> welchSignal;

    KernelSvm svm;
    std::vector<std::vector<double>> svmQueries;
    std::size_t svmCursor = 0;
};

const ScenarioSpec &
registered(const char *name)
{
    const ScenarioSpec *spec = builtinScenarios().find(name);
    if (!spec)
        fatal("perfbench: scenario '%s' is not registered", name);
    return *spec;
}

Fixtures::Fixtures()
    : evsetSpec(registered("build-bins-skl-lru-cloud")),
      forkSpec(registered("campaign-fork-tiny-silent-96")),
      keygenEcdsa(Rng::forStream(kMicroSeed, 1)),
      signEcdsa(Rng::forStream(kMicroSeed, 2)),
      victimMachine(tinyTest(2), silent(), streamSeed(kMicroSeed, 3)),
      skylake(evsetSpec.machineConfig(), silent(),
              streamSeed(kMicroSeed, 4)),
      tiny(tinyTest(2), silent(), streamSeed(kMicroSeed, 5))
{
    Rng rng = Rng::forStream(kMicroSeed, 0);
    mulA = randomElement(rng);
    mulB = randomElement(rng);
    invX = randomElement(rng);
    signKey = signEcdsa.generateKey();
    digest = sha256(std::string("perfbench"));

    VictimConfig vcfg;
    vcfg.seed = streamSeed(kMicroSeed, 6);
    victim = makeVictim(victimMachine, vcfg);
    const Victim::Execution exec =
        victim->triggerRequest(victimMachine.now() + 1000);
    detections = exec.targetAccesses;
    victimMachine.clearStreams();

    forkRig.emplace(forkSpec, streamSeed(kMicroSeed, 7));
    {
        auto lines = forkRig->pool->candidatesAt(21);
        forkRig->machine.accessBatch(0, lines, {BatchOp::Load});
    }
    forkSnap = forkRig->machine.snapshot();

    skylakeSpace = skylake.newAddressSpace();
    const auto lines = mapLines(*skylakeSpace, 4);
    hitLine = lines[0];
    skylake.load(0, hitLine);
    batchLines.assign(lines.begin() + 1, lines.begin() + 17);

    tinySpace = tiny.newAddressSpace();
    missLines = mapLines(*tinySpace, 128);

    evsetRig.emplace(evsetSpec, streamSeed(kMicroSeed, 8));
    evCands = evsetRig->pool->candidatesAt(5);
    evTarget = evCands.back();
    evCands.pop_back();

    Rng sig = Rng::forStream(kMicroSeed, 9);
    welchSignal.resize(8192);
    for (double &v : welchSignal)
        v = sig.nextDouble();

    Rng data = Rng::forStream(kMicroSeed, 10);
    Dataset ds;
    for (int i = 0; i < 96; ++i) {
        std::vector<double> x(8);
        for (double &v : x)
            v = data.nextDouble() * 2.0 - 1.0;
        const int label = x[0] + 0.5 * x[1] - x[2] > 0.0 ? 1 : -1;
        ds.add(x, label);
        svmQueries.push_back(std::move(x));
    }
    svm.fit(ds);
}

std::vector<Micro>
makeMicros(Fixtures &f)
{
    std::vector<Micro> m;
    m.push_back({"crypto.gf571_mul_ns", "ns", 20000, 1.0,
                 [&f] { f.mulA = f.mulA * f.mulB; }, {}});
    m.push_back({"crypto.gf571_inverse_ns", "ns", 2000, 1.0,
                 [&f] {
                     f.invX = f.invX.inverse() + f.mulB;
                     if (f.invX.isZero())
                         f.invX = f.mulA;
                 },
                 {}});
    m.push_back({"crypto.keygen_us", "us", 4, 1.0,
                 [&f] { sink(f.keygenEcdsa.generateKey().d.isZero()); },
                 {}});
    m.push_back({"crypto.sign_us", "us", 4, 1.0,
                 [&f] {
                     sink(f.signEcdsa.signWithTrace(f.digest, f.signKey.d)
                              .ladderBits.size());
                 },
                 {}});
    m.push_back({"victim.request_us", "us", 4, 1.0,
                 [&f] {
                     const auto exec = f.victim->triggerRequest(
                         f.victimMachine.now() + 1000);
                     f.victimMachine.clearStreams();
                     sink(exec.bits.size());
                 },
                 {}});
    m.push_back({"sim.restore_us", "us", 200, 1.0,
                 [&f] { f.forkRig->machine.restore(f.forkSnap); }, {}});
    m.push_back({"attack.extract_us", "us", 200, 1.0,
                 [&f] { sink(f.extractor.extract(f.detections).size()); },
                 {}});
    m.push_back({"sim.load_hit_ns", "ns", 200000, 1.0,
                 [&f] { sink(f.skylake.load(0, f.hitLine)); }, {}});
    m.push_back({"sim.load_miss_ns", "ns", 100000, 1.0,
                 [&f] {
                     sink(f.tiny.load(0, f.missLines[f.missCursor]));
                     if (++f.missCursor == f.missLines.size())
                         f.missCursor = 0;
                 },
                 {}});
    m.push_back({"sim.batch_probe_ns", "ns", 10000,
                 static_cast<double>(16),
                 [&f] {
                     sink(f.skylake.accessBatch(
                         0, f.batchLines, {BatchOp::Load, true, -1}));
                 },
                 {}});
    m.push_back({"evset.test_eviction_us", "us", 200, 1.0,
                 [&f] {
                     sink(f.evsetRig->session->testEvictionSfParallel(
                         f.evTarget, f.evCands, 48));
                 },
                 {}});
    m.push_back({"signal.welch_us", "us", 100, 1.0,
                 [&f] {
                     sink(welchPsd(f.welchSignal, 1.0e6).segments);
                 },
                 {}});
    m.push_back({"ml.svm_predict_us", "us", 20000, 1.0,
                 [&f] {
                     sink(f.svm.predict(f.svmQueries[f.svmCursor]) > 0);
                     if (++f.svmCursor == f.svmQueries.size())
                         f.svmCursor = 0;
                 },
                 {}});
    return m;
}

} // namespace

std::vector<MicroResult>
runMicrobenchmarks()
{
    Fixtures fixtures;
    std::vector<Micro> micros = makeMicros(fixtures);
    for (Micro &m : micros)
        m.body(); // first touch outside the timed repetitions
    for (int rep = 0; rep < kRepetitions; ++rep) {
        for (Micro &m : micros) {
            const std::uint64_t t0 = hostNs();
            for (std::size_t i = 0; i < m.iterations; ++i)
                m.body();
            const double ns = static_cast<double>(hostNs() - t0) /
                              (static_cast<double>(m.iterations) *
                               m.opsPerIteration);
            m.samples.push_back(m.unit[0] == 'u' ? ns / 1e3 : ns);
        }
    }
    std::vector<MicroResult> out;
    for (Micro &m : micros) {
        std::sort(m.samples.begin(), m.samples.end());
        out.push_back({m.name, m.unit, m.samples[m.samples.size() / 2]});
    }
    sink(fixtures.mulA.words()[0] ^ fixtures.invX.words()[0]);
    return out;
}

double
hostSpeedProbeMs()
{
    // xorshift over a 64 KiB table: integer ALU and L1/L2 traffic only.
    std::vector<std::uint64_t> table(8192);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const std::uint64_t t0 = hostNs();
    for (int i = 0; i < (1 << 22); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table[x & 8191] += x;
    }
    const std::uint64_t t1 = hostNs();
    sink(table[x & 8191]);
    return static_cast<double>(t1 - t0) / 1e6;
}

} // namespace llcf::perfbench
