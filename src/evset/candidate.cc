#include "candidate.hh"

#include <cmath>

namespace llcf {

CandidatePool::CandidatePool(AttackSession &session, std::size_t pages)
{
    AddressSpace &space = session.space();
    const Addr base = space.mmapAnon(pages * kPageBytes);
    framePa_ = space.framesOf(base, pages * kPageBytes);
}

std::vector<Addr>
CandidatePool::candidatesAt(unsigned line_index) const
{
    std::vector<Addr> out;
    out.reserve(framePa_.size());
    for (std::size_t p = 0; p < framePa_.size(); ++p)
        out.push_back(at(p, line_index));
    return out;
}

std::vector<Addr>
CandidatePool::shiftToLineIndex(const std::vector<Addr> &at_zero,
                                unsigned line_index)
{
    std::vector<Addr> out;
    out.reserve(at_zero.size());
    const Addr delta = static_cast<Addr>(line_index) << kLineBits;
    for (Addr a : at_zero)
        out.push_back((a & ~static_cast<Addr>(kPageBytes - 1)) | delta);
    return out;
}

std::size_t
CandidatePool::requiredPages(const Machine &machine)
{
    const auto &sf = machine.config().sf;
    return static_cast<std::size_t>(
        std::ceil(kCandidateFactor * sf.uncertainty() * sf.ways));
}

std::size_t
CandidatePool::requiredPagesBlind(unsigned assumed_uncertainty,
                                  unsigned assumed_ways)
{
    return static_cast<std::size_t>(
        std::ceil(kCandidateFactor * assumed_uncertainty * assumed_ways));
}

} // namespace llcf
