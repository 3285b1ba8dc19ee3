#include "configs.hh"

#include "common/log.hh"
#include "common/rng.hh"

namespace llcf {

std::uint64_t
MachineConfig::sliceHashSalt(std::uint64_t machine_seed) const
{
    return sliceSalt ^ mix64(machine_seed);
}

void
MachineConfig::check() const
{
    l1.check();
    l2.check();
    llc.check();
    sf.check();
    if (cores < 1)
        fatal("machine needs at least one core");
    if (llc.sets != sf.sets || llc.slices != sf.slices)
        fatal("LLC and SF must share set count and slice count "
              "(they share the set mapping and slice hash)");
    if (sf.ways <= llc.ways)
        warn("SF ways (%u) not greater than LLC ways (%u); an SF "
             "eviction set is then not automatically an LLC one",
             sf.ways, llc.ways);
    // L2 set-index bits must be a subset of the LLC set-index bits for
    // L2-driven candidate filtering (Section 5.1) to be sound.
    if (l2.sets > llc.sets)
        fatal("L2 has more sets per slice than the LLC; candidate "
              "filtering assumptions would break");
    // The SF-extension test keeps W_SF + 1 congruent lines (all in
    // one L2 set) resident; the L2 needs headroom for that.
    if (l2.ways < sf.ways + 2)
        warn("L2 ways (%u) below SF ways + 2 (%u); SF eviction-set "
             "extension will thrash its own working set",
             l2.ways, sf.ways + 2);
    defense.check(llc.ways, sf.ways, cores);
}

MachineConfig &
MachineConfig::withSharedRepl(ReplKind kind)
{
    llcRepl = kind;
    sfRepl = kind;
    return *this;
}

MachineConfig
skylakeSp(unsigned slices)
{
    MachineConfig cfg;
    cfg.name = "skylake-sp-" + std::to_string(slices) + "sl";
    cfg.cores = 4;
    cfg.l1 = CacheGeometry{8, 64, 1};
    cfg.l2 = CacheGeometry{16, 1024, 1};
    cfg.llc = CacheGeometry{11, 2048, slices};
    cfg.sf = CacheGeometry{12, 2048, slices};
    cfg.check();
    return cfg;
}

MachineConfig
iceLakeSp(unsigned slices)
{
    MachineConfig cfg;
    cfg.name = "icelake-sp-" + std::to_string(slices) + "sl";
    cfg.cores = 4;
    cfg.l1 = CacheGeometry{12, 64, 1};
    cfg.l2 = CacheGeometry{20, 1024, 1};
    cfg.llc = CacheGeometry{12, 2048, slices};
    cfg.sf = CacheGeometry{16, 2048, slices};
    // Ice Lake has slightly different latencies; keep the same model
    // but a marginally slower L2 and LLC.
    cfg.timing.l2Hit = 16.0;
    cfg.timing.llcHit = 60.0;
    cfg.check();
    return cfg;
}

MachineConfig
tinyTest(unsigned slices)
{
    MachineConfig cfg;
    cfg.name = "tiny-" + std::to_string(slices) + "sl";
    cfg.cores = 3;
    // Small but with non-trivial uncertainty: the L2 has 1 and the
    // LLC 2 page-uncontrollable index bits (vs 4 and 5 on Skylake-SP).
    // Like on Skylake, the L2 must hold an SF set's worth of lines
    // plus slack (the SF-extension working set lives in one L2 set).
    cfg.l1 = CacheGeometry{2, 8, 1};
    cfg.l2 = CacheGeometry{8, 128, 1};
    cfg.llc = CacheGeometry{4, 256, slices};
    cfg.sf = CacheGeometry{5, 256, slices};
    cfg.physFrames = 1u << 14; // 64 MB
    cfg.check();
    return cfg;
}

MachineConfig
scaledSkylake(unsigned slices)
{
    MachineConfig cfg = skylakeSp(slices);
    cfg.name = "skylake-scaled-" + std::to_string(slices) + "sl";
    return cfg;
}

MachineConfig
scaledIceLake(unsigned slices)
{
    MachineConfig cfg = iceLakeSp(slices);
    cfg.name = "icelake-scaled-" + std::to_string(slices) + "sl";
    return cfg;
}

} // namespace llcf
