/**
 * @file
 * Machine configurations: the paper's host microarchitectures plus
 * scaled-down variants for fast tests and benches.
 */

#ifndef LLCF_SIM_CONFIGS_HH
#define LLCF_SIM_CONFIGS_HH

#include <cstdint>
#include <string>

#include "cache/geometry.hh"
#include "cache/replacement.hh"
#include "defense/defense.hh"
#include "sim/timing.hh"

namespace llcf {

/**
 * Full static description of a simulated host.
 */
struct MachineConfig
{
    std::string name = "skylake-sp";

    /** Number of physical cores; the attack needs >= 3 (main, helper,
     *  victim). */
    unsigned cores = 3;

    CacheGeometry l1{8, 64, 1};
    CacheGeometry l2{16, 1024, 1};
    CacheGeometry llc{11, 2048, 28};
    CacheGeometry sf{12, 2048, 28};

    ReplKind l1Repl = ReplKind::LRU;
    ReplKind l2Repl = ReplKind::LRU;
    ReplKind llcRepl = ReplKind::LRU;
    ReplKind sfRepl = ReplKind::LRU;

    /**
     * Reuse-predictor probability that a private line evicted because
     * of an SF/L2 eviction is inserted into the LLC (Section 2.3).
     */
    double sfEvictToLlcProb = 0.3;

    /** Physical memory pool in 4 kB frames. */
    std::size_t physFrames = 1u << 20; // 4 GB

    /** Key of the per-machine opaque slice hash. */
    std::uint64_t sliceSalt = 0x5eed5a17;

    /** Host-side defenses; default-constructed = all off. */
    DefenseConfig defense;

    TimingParams timing;

    /** Validate geometric invariants the attack techniques rely on. */
    void check() const;

    /**
     * Key of this host's opaque slice hash: the config salt mixed with
     * the per-machine @p machine_seed, so two simulated hosts of the
     * same model still have distinct slice mappings.  Machine keys its
     * hash with exactly this value.
     */
    std::uint64_t sliceHashSalt(std::uint64_t machine_seed) const;

    /**
     * Set the replacement policy of the shared structures (LLC + SF)
     * — the axis the paper's policy ablation varies.  Returns *this
     * for chaining onto the factory calls.
     */
    MachineConfig &withSharedRepl(ReplKind kind);
};

/**
 * Intel Skylake-SP / Cascade Lake-SP (Table 2): 8-way 32 kB L1,
 * 16-way 1 MB L2, 11-way 2,048-set LLC slices, 12-way 2,048-set SF
 * slices.  Cloud Run hosts commonly have 28 slices (Xeon Platinum
 * 8173M); the paper's local box has 22 (Xeon Gold 6152).
 */
MachineConfig skylakeSp(unsigned slices = 28);

/**
 * Intel Ice Lake-SP (Section 5.3.2): 20-way 1.25 MB L2, 16-way SF,
 * 26 slices on the Xeon Gold 5320.
 */
MachineConfig iceLakeSp(unsigned slices = 26);

/**
 * A miniature machine for unit tests: same structural invariants
 * (L2 index bits subset of LLC index bits, SF ways > LLC ways) at a
 * fraction of the size.
 */
MachineConfig tinyTest(unsigned slices = 2);

/**
 * Skylake-like machine scaled to fewer slices for fast benches;
 * per-slice geometry and timing stay faithful.
 */
MachineConfig scaledSkylake(unsigned slices);

/**
 * Ice Lake-like machine scaled to fewer slices for fast benches;
 * per-slice geometry and timing stay faithful.  Exercises the
 * non-power-of-two way counts (20-way L2, 12-way LLC) the Skylake
 * variant does not.
 */
MachineConfig scaledIceLake(unsigned slices);

} // namespace llcf

#endif // LLCF_SIM_CONFIGS_HH
