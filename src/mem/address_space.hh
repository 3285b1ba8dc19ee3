/**
 * @file
 * Physical frame allocation and per-process virtual address spaces.
 *
 * The attacker in the paper is an unprivileged container user: they pick
 * virtual addresses but the kernel picks physical frames, so PA bits
 * above the 4 kB page offset are uncontrolled and unknown (Figure 1).
 * PageAllocator models that by handing out pseudo-randomly chosen frames
 * from a large pool; AddressSpace maps process-private virtual pages to
 * those frames.
 */

#ifndef LLCF_MEM_ADDRESS_SPACE_HH
#define LLCF_MEM_ADDRESS_SPACE_HH

#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace llcf {

/**
 * Allocates 4 kB physical page frames from a finite pool in a
 * randomised order.
 *
 * Randomisation is what creates the paper's "cache uncertainty": the
 * attacker cannot steer which L2/LLC sets a fresh page's lines map to.
 *
 * The order is a descending Fisher-Yates shuffle of the frame numbers
 * (exactly Rng::shuffle's), run lazily: the k-th allocFrame() performs
 * the shuffle's k-th step and hands out the slot that step finalises.
 * Slots the shuffle has not touched still hold their own index, so the
 * state is the count of unfinalised slots plus the few slots that hold
 * another frame.  Memory and copy cost grow with the frames handed
 * out, not with the pool (a Skylake-SP pool has 2^20 frames; a world
 * draws a few thousand).  DESIGN.md §15 has the argument that
 * the draw sequence equals the eager shuffle's.
 */
class PageAllocator
{
  public:
    /**
     * @param total_frames Size of the physical pool in 4 kB frames.
     * @param rng Source of allocation randomness (copied).
     */
    PageAllocator(std::size_t total_frames, Rng rng);

    // Out of line on purpose: inline, the map's copy code is
    // instantiated in every translation unit that copies a Machine
    // snapshot, and in machine.cc that changes how GCC inlines the
    // cache access path.
    PageAllocator(const PageAllocator &other);
    PageAllocator &operator=(const PageAllocator &other);
    ~PageAllocator();

    /** Allocate one frame; returns its physical base address. */
    Addr allocFrame();

    /** Frames still available. */
    std::size_t freeFrames() const { return unshuffled_; }

    /** Total pool size in frames. */
    std::size_t totalFrames() const { return totalFrames_; }

  private:
    std::size_t totalFrames_;
    /** Slots [0, unshuffled_) are still free; the rest are handed out. */
    std::size_t unshuffled_;
    /** Free slot -> the frame it holds, for each free slot that does
     *  not hold its own index.  Only point lookups: its iteration
     *  order never reaches observable state. */
    std::unordered_map<std::uint32_t, std::uint32_t> displaced_;
    Rng rng_;
};

/**
 * A process-private virtual address space with 4 kB page granularity.
 *
 * Only the mechanics an attack program relies on are modelled: mapping
 * anonymous memory (mmapAnon) and translating VAs to PAs during access.
 */
class AddressSpace
{
  public:
    /**
     * @param allocator Backing frame allocator (shared between spaces,
     *                  not owned).
     * @param asid Address-space id, used only to spread VA layouts.
     */
    AddressSpace(PageAllocator &allocator, unsigned asid);

    /**
     * Map @p bytes of anonymous memory (rounded up to whole pages).
     * Frames are allocated eagerly, matching an attack buffer that is
     * touched immediately after mmap.
     * @return base virtual address of the mapping.
     */
    Addr mmapAnon(std::size_t bytes);

    /** Translate a virtual address. @pre va was mapped here. */
    Addr translate(Addr va) const;

    /**
     * Translate every cache line of [@p va, @p va + @p bytes): one
     * page-table lookup per page instead of one per line, with the
     * in-page lines filled in arithmetically.  This is the bulk path
     * candidate pools and bench working sets are built through — at
     * Skylake scale they translate tens of thousands of lines, and
     * the per-line hash lookups dominate construction otherwise.
     * @pre va is line-aligned and the whole range is mapped here.
     */
    std::vector<Addr> translateLines(Addr va, std::size_t bytes) const;

    /** Physical frames backing a mapping of @p bytes at @p base. */
    std::vector<Addr> framesOf(Addr base, std::size_t bytes) const;

    /** Number of mapped pages. */
    std::size_t pageCount() const { return pageTable_.size(); }

    /** Value snapshot of the mapping table (fork/restore). */
    struct State
    {
        std::unordered_map<Addr, Addr> pageTable;
        Addr nextVa = 0;
    };

    /** Capture the current mappings. */
    State saveState() const { return {pageTable_, nextVa_}; }

    /** Restore mappings captured on this space (frames must still be
     *  owned, i.e. the backing allocator was restored alongside). */
    void
    restoreState(const State &s)
    {
        pageTable_ = s.pageTable;
        nextVa_ = s.nextVa;
    }

  private:
    PageAllocator &allocator_;
    /** VA page -> PA frame.  Stays unordered deliberately: this is
     *  the per-access translation hot path and every use is a point
     *  lookup — nothing ever iterates it, so hash order cannot reach
     *  observable state (the static unordered-iter rule would flag
     *  any future iteration on a serialization path). */
    std::unordered_map<Addr, Addr> pageTable_;
    Addr nextVa_;
};

} // namespace llcf

#endif // LLCF_MEM_ADDRESS_SPACE_HH
