#include "cache_array.hh"

#include <cstring>

#include "common/log.hh"

namespace llcf {

std::size_t
CacheArray::metaWordsFor(const CacheGeometry &geom, ReplKind repl)
{
    const std::size_t repl_bytes = withReplOps(repl, [&](auto ops) {
        return ops.stateBytes(geom.ways);
    });
    const std::size_t meta_bytes = 2 * geom.ways + repl_bytes;
    return (meta_bytes + 7) / 8;
}

CacheArray::CacheArray(const CacheGeometry &geom, ReplKind repl)
    : geom_(geom), kind_(repl)
{
    geom_.check();
    paddedWays_ = static_cast<unsigned>(tagWordsFor(geom_));
    metaWords_ = metaWordsFor(geom_, kind_);
    // Tag rows start on host cache lines (aligned base, whole-line
    // stride) so a row never straddles an extra line; the stride gap
    // beyond paddedWays_ is never read.
    const std::size_t tag_stride = hostLineAlignWords(paddedWays_);
    ownTags_.assign(static_cast<std::size_t>(geom_.totalSets()) *
                            tag_stride +
                        kLineBytes / sizeof(Addr),
                    0);
    ownMeta_.assign(static_cast<std::size_t>(geom_.totalSets()) *
                        metaWords_,
                    0);
    tagBase_ = hostLineAlignPtr(ownTags_.data());
    tagStride_ = tag_stride;
    tagOffset_ = 0;
    metaBase_ = ownMeta_.data();
    metaStride_ = metaWords_;
    metaOffset_ = 0;
    initPlanes();
}

CacheArray::CacheArray(const CacheGeometry &geom, ReplKind repl,
                       Addr *tag_base, std::size_t tag_stride_words,
                       std::size_t tag_offset_words,
                       std::uint64_t *meta_base,
                       std::size_t meta_stride_words,
                       std::size_t meta_offset_words)
    : geom_(geom), kind_(repl)
{
    geom_.check();
    paddedWays_ = static_cast<unsigned>(tagWordsFor(geom_));
    metaWords_ = metaWordsFor(geom_, kind_);
    if (tag_offset_words + paddedWays_ > tag_stride_words)
        panic("cache array tag row does not fit its placement");
    if (meta_offset_words + metaWords_ > meta_stride_words)
        panic("cache array meta row does not fit its placement");
    tagBase_ = tag_base;
    tagStride_ = tag_stride_words;
    tagOffset_ = tag_offset_words;
    metaBase_ = meta_base;
    metaStride_ = meta_stride_words;
    metaOffset_ = meta_offset_words;
    initPlanes();
}

void
CacheArray::initPlanes()
{
    replOffset_ = 2 * geom_.ways;
    // invalidWays() and fillMasked's allowed mask hold one bit per way.
    if (geom_.ways > 64)
        panic("cache array with %u ways: at most 64 are supported",
              geom_.ways);
    waysMask_ = ~std::uint64_t{0} >> (64 - geom_.ways);
    for (unsigned s = 0; s < geom_.totalSets(); ++s)
        resetSet(s);
}

void
CacheArray::resetSet(unsigned set)
{
    Addr *tags = tagsOf(set);
    std::uint8_t *meta = metaOf(set);
    // Padding slots beyond ways_ keep the sentinel forever so the
    // vector scan can consume whole groups without a validity mask.
    for (unsigned w = 0; w < paddedWays_; ++w)
        tags[w] = kInvalidTag;
    for (unsigned w = 0; w < geom_.ways; ++w) {
        meta[w] = static_cast<std::uint8_t>(CohState::Invalid);
        meta[geom_.ways + w] = 0;
    }
    withReplOps(kind_, [&](auto ops) {
        ops.reset(replStateIn(meta), geom_.ways);
    });
}

void
CacheArray::setLineState(unsigned set, unsigned way, CohState coh,
                         std::uint8_t owner)
{
    std::uint8_t *meta = metaOf(set);
    if (static_cast<CohState>(meta[way]) == CohState::Invalid)
        panic("setLineState on invalid way %u", way);
    meta[way] = static_cast<std::uint8_t>(coh);
    meta[geom_.ways + way] = owner;
}

void
CacheArray::flushAll()
{
    for (unsigned s = 0; s < geom_.totalSets(); ++s)
        resetSet(s);
}

CacheArrayState
CacheArray::saveState() const
{
    CacheArrayState st;
    const std::size_t sets = geom_.totalSets();
    st.tags.resize(sets * paddedWays_);
    st.meta.resize(sets * metaWords_);
    for (std::size_t s = 0; s < sets; ++s) {
        std::memcpy(st.tags.data() + s * paddedWays_,
                    tagsOf(static_cast<unsigned>(s)),
                    paddedWays_ * sizeof(Addr));
        std::memcpy(st.meta.data() + s * metaWords_,
                    metaOf(static_cast<unsigned>(s)),
                    metaWords_ * sizeof(std::uint64_t));
    }
    st.counters = counters_;
    return st;
}

void
CacheArray::restoreState(const CacheArrayState &state)
{
    const std::size_t sets = geom_.totalSets();
    if (state.tags.size() != sets * paddedWays_ ||
        state.meta.size() != sets * metaWords_)
        panic("cache array state does not match this geometry");
    for (std::size_t s = 0; s < sets; ++s) {
        std::memcpy(tagsOf(static_cast<unsigned>(s)),
                    state.tags.data() + s * paddedWays_,
                    paddedWays_ * sizeof(Addr));
        std::memcpy(metaOf(static_cast<unsigned>(s)),
                    state.meta.data() + s * metaWords_,
                    metaWords_ * sizeof(std::uint64_t));
    }
    counters_ = state.counters;
}

} // namespace llcf
