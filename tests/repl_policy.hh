/**
 * @file
 * Test support: virtual wrappers over the replacement-policy ops of
 * src/cache/replacement.hh, for tests that want runtime polymorphism
 * (the reference cache model, the policy property tests).  They
 * contain no logic of their own; the library dispatches the ops
 * statically through withReplOps().
 */

#ifndef LLCF_TESTS_REPL_POLICY_HH
#define LLCF_TESTS_REPL_POLICY_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "cache/replacement.hh"
#include "common/rng.hh"

namespace llcf {

/**
 * Abstract replacement policy for callers that want runtime
 * polymorphism.  One instance serves every set of a cache structure;
 * all mutable state lives in the per-set byte buffer passed to each
 * call.  The concrete classes delegate to the ops structs above.
 */
class ReplPolicy
{
  public:
    virtual ~ReplPolicy() = default;

    /** Bytes of per-set state required for @p ways ways. */
    virtual std::size_t stateBytes(unsigned ways) const = 0;

    /** Initialise per-set state to the cold baseline. */
    virtual void reset(std::uint8_t *st, unsigned ways) const = 0;

    /** Update state on a hit to @p way. */
    virtual void onHit(std::uint8_t *st, unsigned ways, unsigned way)
        const = 0;

    /** Update state when a new line is filled into @p way. */
    virtual void onFill(std::uint8_t *st, unsigned ways, unsigned way)
        const = 0;

    /**
     * Choose the victim way.  The cache array fills invalid ways first,
     * so this is only consulted when every way is valid.
     */
    virtual unsigned victim(std::uint8_t *st, unsigned ways, Rng &rng)
        const = 0;

    /**
     * Victim restricted to the set bits of @p allowed (partitioned
     * fills).  @pre the mask selects at least one way below @p ways.
     */
    virtual unsigned victimMasked(std::uint8_t *st, unsigned ways,
                                  std::uint64_t allowed,
                                  Rng &rng) const = 0;

    /** Policy kind tag. */
    virtual ReplKind kind() const = 0;
};

/** Virtual wrapper over @p Ops (see the ops structs above). */
template <typename Ops>
class ReplPolicyFor : public ReplPolicy
{
  public:
    std::size_t
    stateBytes(unsigned ways) const override
    {
        return Ops::stateBytes(ways);
    }

    void
    reset(std::uint8_t *st, unsigned ways) const override
    {
        Ops::reset(st, ways);
    }

    void
    onHit(std::uint8_t *st, unsigned ways, unsigned way) const override
    {
        Ops::onHit(st, ways, way);
    }

    void
    onFill(std::uint8_t *st, unsigned ways, unsigned way) const override
    {
        Ops::onFill(st, ways, way);
    }

    unsigned
    victim(std::uint8_t *st, unsigned ways, Rng &rng) const override
    {
        return Ops::victim(st, ways, rng);
    }

    unsigned
    victimMasked(std::uint8_t *st, unsigned ways, std::uint64_t allowed,
                 Rng &rng) const override
    {
        return Ops::victimMasked(st, ways, allowed, rng);
    }

    ReplKind
    kind() const override
    {
        return Ops::kKind;
    }
};

/** Virtual wrappers of the four policy ops (reference models). */
using LruPolicy = ReplPolicyFor<LruOps>;
using TreePlruPolicy = ReplPolicyFor<TreePlruOps>;
using SrripPolicy = ReplPolicyFor<SrripOps>;
using RandomPolicy = ReplPolicyFor<RandomOps>;

/** Factory for virtual policy instances. */
inline std::unique_ptr<ReplPolicy>
makeReplPolicy(ReplKind kind)
{
    return withReplOps(kind, [](auto ops) -> std::unique_ptr<ReplPolicy> {
        return std::make_unique<ReplPolicyFor<decltype(ops)>>();
    });
}

} // namespace llcf

#endif // LLCF_TESTS_REPL_POLICY_HH
