#include "slice_hash.hh"

#include "common/log.hh"

namespace llcf {

OpaqueSliceHash::OpaqueSliceHash(unsigned n_slices, std::uint64_t salt)
    : nSlices_(n_slices), salt_(salt)
{
    if (n_slices == 0)
        fatal("slice hash needs at least one slice");
    if (n_slices > 1)
        magic_ = ~std::uint64_t{0} / n_slices; // floor((2^64 - 1) / n)
}

} // namespace llcf
