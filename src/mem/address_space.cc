#include "address_space.hh"

#include "common/log.hh"

namespace llcf {

PageAllocator::PageAllocator(std::size_t total_frames, Rng rng)
    : totalFrames_(total_frames), unshuffled_(total_frames), rng_(rng)
{
    if (total_frames == 0)
        fatal("PageAllocator needs a non-empty frame pool");
}

PageAllocator::PageAllocator(const PageAllocator &) = default;

PageAllocator &
PageAllocator::operator=(const PageAllocator &) = default;

PageAllocator::~PageAllocator() = default;

Addr
PageAllocator::allocFrame()
{
    if (unshuffled_ == 0)
        fatal("physical frame pool exhausted (%zu frames)", totalFrames_);
    // Step i of Rng::shuffle swaps slot i - 1 with slot j < i and never
    // touches slot i - 1 again, so the frame it leaves there -- the
    // one the eager allocator would pop next -- is slot j's.  The last
    // slot is final without a draw, as the shuffle's loop stops at 2.
    const std::size_t i = unshuffled_--;
    const auto last = static_cast<std::uint32_t>(i - 1);
    const auto j =
        i > 1 ? static_cast<std::uint32_t>(rng_.nextBelow(i)) : last;
    auto held = [this](std::uint32_t slot) {
        auto it = displaced_.find(slot);
        return it == displaced_.end() ? slot : it->second;
    };
    const std::uint32_t frame = held(j);
    if (j != last) {
        const std::uint32_t moved = held(last);
        if (moved == j)
            displaced_.erase(j);
        else
            displaced_[j] = moved;
    }
    displaced_.erase(last);
    return static_cast<Addr>(frame) << kPageBits;
}

AddressSpace::AddressSpace(PageAllocator &allocator, unsigned asid)
    : allocator_(allocator),
      // Spread VA bases apart so per-process layouts never collide;
      // the 0x10000... base mimics a typical mmap region.
      nextVa_(0x100000000000ULL + (static_cast<Addr>(asid) << 36))
{
}

Addr
AddressSpace::mmapAnon(std::size_t bytes)
{
    const std::size_t pages = (bytes + kPageBytes - 1) / kPageBytes;
    const Addr base = nextVa_;
    for (std::size_t i = 0; i < pages; ++i) {
        Addr va_page = base + static_cast<Addr>(i) * kPageBytes;
        pageTable_[va_page] = allocator_.allocFrame();
    }
    nextVa_ += static_cast<Addr>(pages) * kPageBytes;
    // Leave a guard gap between mappings, as real mmap tends to.
    nextVa_ += kPageBytes;
    return base;
}

Addr
AddressSpace::translate(Addr va) const
{
    const Addr va_page = va & ~static_cast<Addr>(kPageBytes - 1);
    auto it = pageTable_.find(va_page);
    if (it == pageTable_.end())
        panic("translate of unmapped VA %#lx",
              static_cast<unsigned long>(va));
    return it->second | pageOffset(va);
}

std::vector<Addr>
AddressSpace::translateLines(Addr va, std::size_t bytes) const
{
    if (lineAlign(va) != va)
        panic("translateLines VA %#lx not line aligned",
              static_cast<unsigned long>(va));
    std::vector<Addr> lines;
    lines.reserve((bytes + kLineBytes - 1) / kLineBytes);
    Addr v = va;
    const Addr end = va + bytes;
    while (v < end) {
        // One lookup covers every line left on this page.
        const Addr pa = translate(v);
        const Addr page_end =
            (v & ~static_cast<Addr>(kPageBytes - 1)) + kPageBytes;
        const Addr stop = page_end < end ? page_end : end;
        for (Addr off = 0; v + off < stop; off += kLineBytes)
            lines.push_back(pa + off);
        v = stop;
    }
    return lines;
}

std::vector<Addr>
AddressSpace::framesOf(Addr base, std::size_t bytes) const
{
    std::vector<Addr> frames;
    const std::size_t pages = (bytes + kPageBytes - 1) / kPageBytes;
    frames.reserve(pages);
    for (std::size_t i = 0; i < pages; ++i)
        frames.push_back(translate(base + static_cast<Addr>(i) *
                                   kPageBytes));
    return frames;
}

} // namespace llcf
