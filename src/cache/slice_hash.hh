/**
 * @file
 * The LLC/SF slice hash.
 *
 * Intel's slice hash consumes every PA bit above the line offset and is
 * complex and non-linear for non-power-of-two slice counts [McCalpin 21],
 * so partial control of the low PA bits does not narrow the possible
 * slices (Section 2.2.1).  OpaqueSliceHash models it as a keyed
 * pseudo-random hash of PA[.. :6]: deterministic, attacker-opaque and
 * all-bit-dependent, for any slice count.  Those are exactly the
 * properties the attack algorithms rely on.  The key is attacker-
 * unobservable by design: any key yields a hash that is observation-
 * equivalent to the true one up to a relabeling of the slices, so the
 * Step-0 prober (src/calib/) recovers only the slice count.
 */

#ifndef LLCF_CACHE_SLICE_HASH_HH
#define LLCF_CACHE_SLICE_HASH_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"

namespace llcf {

/**
 * Keyed pseudo-random slice hash supporting arbitrary slice counts
 * (e.g. the 28-, 26- and 22-slice parts in the paper).
 */
class OpaqueSliceHash
{
  public:
    /**
     * @param n_slices Number of slices.
     * @param salt Per-machine key, so different simulated hosts have
     *             different (but internally fixed) slice mappings.
     */
    OpaqueSliceHash(unsigned n_slices, std::uint64_t salt);

    /**
     * Hot path: the Machine holds this hash by value and
     * calls it once per simulated access, so the hash plus the
     * modulo-free reduction below must inline.
     */
    unsigned
    slice(Addr pa) const
    {
        // Hash the line address (all bits above the line offset).
        // mix64 is a strong 64-bit finaliser, so every PA bit
        // influences the slice, matching the attacker-visible
        // behaviour of the real hash.
        const std::uint64_t h = mix64((pa >> kLineBits) ^ salt_);
        if (nSlices_ == 1)
            return 0;
        // Granlund-Montgomery reduction with magic_ ~= 2^64 / n: q is
        // within two of h / n, so at most two corrections recover
        // exactly the h % n the modulo operator would produce, without
        // a hardware divide on the per-access path.
        const std::uint64_t q = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(h) * magic_) >> 64);
        std::uint64_t r = h - q * nSlices_;
        while (r >= nSlices_)
            r -= nSlices_;
        return static_cast<unsigned>(r);
    }

    /** Number of slices this hash targets. */
    unsigned slices() const { return nSlices_; }

  private:
    unsigned nSlices_;
    std::uint64_t salt_;
    std::uint64_t magic_ = 0; //!< floor(2^64 / nSlices_) for nSlices_ > 1
};

} // namespace llcf

#endif // LLCF_CACHE_SLICE_HASH_HH
