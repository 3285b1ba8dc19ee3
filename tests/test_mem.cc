/**
 * @file
 * Unit tests for physical frame allocation and virtual address
 * spaces: uniqueness, randomisation, translation consistency, and
 * shared mappings.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "mem/address_space.hh"

namespace llcf {
namespace {

TEST(PageAllocator, FramesAreUniqueAndAligned)
{
    PageAllocator alloc(256, Rng(1));
    std::set<Addr> seen;
    for (int i = 0; i < 256; ++i) {
        Addr pa = alloc.allocFrame();
        EXPECT_EQ(pageOffset(pa), 0u);
        EXPECT_TRUE(seen.insert(pa).second) << "duplicate frame";
    }
    EXPECT_EQ(alloc.freeFrames(), 0u);
}

/** The eager allocator the lazy one replaces: shuffle every frame
    number up front with Rng::shuffle, then pop from the back. */
std::vector<Addr>
referenceFrames(std::size_t n, std::uint64_t seed)
{
    std::vector<std::uint32_t> pool(n);
    std::iota(pool.begin(), pool.end(), 0u);
    Rng rng(seed);
    rng.shuffle(pool);
    std::vector<Addr> frames;
    frames.reserve(n);
    while (!pool.empty()) {
        frames.push_back(static_cast<Addr>(pool.back()) << kPageBits);
        pool.pop_back();
    }
    return frames;
}

TEST(PageAllocator, DrawsTheEagerShuffleFrameForFrame)
{
    const std::size_t sizes[] = {1, 2, 3, 17, 4096, std::size_t{1} << 20};
    for (std::size_t n : sizes) {
        for (std::uint64_t seed : {1u, 7u, 0xa110cu}) {
            const std::vector<Addr> want = referenceFrames(n, seed);
            PageAllocator alloc(n, Rng(seed));
            std::size_t mismatches = 0;
            for (std::size_t k = 0; k < n; ++k) {
                ASSERT_EQ(alloc.freeFrames(), n - k);
                mismatches += alloc.allocFrame() != want[k];
            }
            EXPECT_EQ(mismatches, 0u) << "pool " << n << " seed " << seed;
            EXPECT_EQ(alloc.freeFrames(), 0u);
        }
    }
}

TEST(PageAllocator, CopyContinuesTheSameSequence)
{
    const std::size_t n = 4096;
    const std::vector<Addr> want = referenceFrames(n, 11);
    PageAllocator alloc(n, Rng(11));
    for (std::size_t k = 0; k < n / 3; ++k)
        ASSERT_EQ(alloc.allocFrame(), want[k]);

    PageAllocator copy(alloc);
    PageAllocator assigned(1, Rng{});
    assigned = alloc;
    for (std::size_t k = n / 3; k < n; ++k) {
        ASSERT_EQ(alloc.allocFrame(), want[k]);
        ASSERT_EQ(copy.allocFrame(), want[k]);
        ASSERT_EQ(assigned.allocFrame(), want[k]);
    }
    EXPECT_EQ(copy.freeFrames(), 0u);
    EXPECT_EQ(assigned.freeFrames(), 0u);
}

TEST(PageAllocator, AllocationOrderIsRandomised)
{
    // Two allocators with different seeds should hand out different
    // frame orders; one allocator should not hand out consecutive
    // frame numbers (overwhelmingly likely with 4096 frames).
    PageAllocator a(4096, Rng(3)), b(4096, Rng(4));
    bool differs = false;
    bool consecutive = true;
    Addr prev = a.allocFrame();
    for (int i = 0; i < 64; ++i) {
        Addr va = a.allocFrame();
        Addr vb = b.allocFrame();
        differs |= va != vb;
        consecutive &= va == prev + kPageBytes;
        prev = va;
    }
    EXPECT_TRUE(differs);
    EXPECT_FALSE(consecutive);
}

class AddressSpaceTest : public ::testing::Test
{
  protected:
    AddressSpaceTest() : alloc_(1024, Rng(5)), space_(alloc_, 0) {}

    PageAllocator alloc_;
    AddressSpace space_;
};

TEST_F(AddressSpaceTest, MmapTranslatesConsistently)
{
    const Addr base = space_.mmapAnon(8 * kPageBytes);
    EXPECT_EQ(space_.pageCount(), 8u);
    for (unsigned p = 0; p < 8; ++p) {
        for (unsigned off : {0u, 64u, 4095u}) {
            const Addr va = base + p * kPageBytes + off;
            const Addr pa = space_.translate(va);
            // Page offsets are preserved by translation.
            EXPECT_EQ(pageOffset(pa), off);
            // Translation is stable.
            EXPECT_EQ(space_.translate(va), pa);
        }
    }
}

TEST_F(AddressSpaceTest, DistinctPagesGetDistinctFrames)
{
    const Addr base = space_.mmapAnon(16 * kPageBytes);
    std::set<Addr> frames;
    for (unsigned p = 0; p < 16; ++p)
        frames.insert(space_.translate(base + p * kPageBytes));
    EXPECT_EQ(frames.size(), 16u);
}

TEST_F(AddressSpaceTest, SeparateMappingsDoNotOverlap)
{
    const Addr a = space_.mmapAnon(4 * kPageBytes);
    const Addr b = space_.mmapAnon(4 * kPageBytes);
    EXPECT_GE(b, a + 4 * kPageBytes);
}

TEST_F(AddressSpaceTest, DifferentSpacesGetDifferentVaRanges)
{
    AddressSpace other(alloc_, 1);
    const Addr a = space_.mmapAnon(kPageBytes);
    const Addr b = other.mmapAnon(kPageBytes);
    EXPECT_NE(a, b);
}

} // namespace
} // namespace llcf
