/**
 * @file
 * Candidate-set construction (paper Section 2.2.1, step 1).
 *
 * The attacker mmaps a large pool of 4 kB pages; each page contributes
 * one candidate address per page offset.  Because the kernel assigns
 * physical frames the attacker cannot observe, a candidate's L2/LLC/SF
 * set is unknown up to the cache uncertainty U — which is exactly why
 * candidate sets must hold ~kCandidateFactor * U * W addresses.
 */

#ifndef LLCF_EVSET_CANDIDATE_HH
#define LLCF_EVSET_CANDIDATE_HH

#include <vector>

#include "evset/session.hh"

namespace llcf {

/**
 * A pool of attacker pages providing candidate addresses at any page
 * offset.  Addresses are pre-translated once (mmap + first touch) and
 * then treated as opaque pointers.
 */
class CandidatePool
{
  public:
    /**
     * Allocate @p pages pages in @p session's address space.
     */
    CandidatePool(AttackSession &session, std::size_t pages);

    /** Number of pages (candidates per offset). */
    std::size_t pages() const { return framePa_.size(); }

    /** Candidate address of page @p page at cache-line @p line_index. */
    Addr
    at(std::size_t page, unsigned line_index) const
    {
        return framePa_[page] |
               (static_cast<Addr>(line_index) << kLineBits);
    }

    /** All candidates at a given line index (page offset / 64). */
    std::vector<Addr> candidatesAt(unsigned line_index) const;

    /**
     * Derive candidates at @p line_index from a list of candidates at
     * line index 0 by adding the offset delta — the Section 5.3.1
     * trick: same-page shifts preserve L2 congruence.
     */
    static std::vector<Addr> shiftToLineIndex(
        const std::vector<Addr> &at_zero, unsigned line_index);

    /**
     * Pool size needed for one construction campaign on @p machine:
     * ceil(kCandidateFactor * U_sf * W_sf) pages.  Oracle sizing —
     * reads the machine's true geometry; blind attackers size with
     * requiredPagesBlind instead.
     */
    static std::size_t requiredPages(const Machine &machine);

    /**
     * Pool size for a blind attacker who has not calibrated yet:
     * ceil(kCandidateFactor * assumed_uncertainty * assumed_ways)
     * pages from the attacker's prior upper bounds on U and W (a cloud
     * tenant knows the host family from cpuid, not the exact part).
     * Oversizing only costs memory; undersizing makes Step 0 and
     * Step 1 fail.
     */
    static std::size_t requiredPagesBlind(unsigned assumed_uncertainty,
                                          unsigned assumed_ways);

  private:
    std::vector<Addr> framePa_; //!< page-aligned translated bases
};

} // namespace llcf

#endif // LLCF_EVSET_CANDIDATE_HH
