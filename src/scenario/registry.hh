/**
 * @file
 * The scenario registry: named points of the machine x policy x noise
 * x algorithm x stage matrix, so benches, tests and future sweeps
 * address scenarios by name instead of re-wiring configuration by
 * hand.  Adding a scenario for a new policy, host or victim is ~10
 * lines in builtinScenarios().
 */

#ifndef LLCF_SCENARIO_REGISTRY_HH
#define LLCF_SCENARIO_REGISTRY_HH

#include <string_view>
#include <vector>

#include "scenario/scenario.hh"

namespace llcf {

/**
 * An ordered, name-unique collection of scenario specs.  Insertion
 * order is preserved — it determines every bench_suite run's
 * execution and JSON output order.
 */
class ScenarioRegistry
{
  public:
    /** Register one scenario; fatal on a duplicate name. */
    void add(ScenarioSpec spec);

    /** Spec by exact name, or nullptr. */
    const ScenarioSpec *find(std::string_view name) const;

    /** All specs in registration order. */
    const std::vector<ScenarioSpec> &all() const { return specs_; }

    /**
     * Resolve a comma-separated selection.  Each element is an exact
     * name or a prefix glob like "build-*"; fatal on an element that
     * matches nothing.  Duplicates are dropped, order follows the
     * registry.
     */
    std::vector<const ScenarioSpec *> select(std::string_view patterns)
        const;

  private:
    std::vector<ScenarioSpec> specs_;
};

/**
 * The built-in scenario matrix: both host configurations (Skylake-SP
 * and Ice Lake-SP), all four replacement policies, the paper's noise
 * regimes plus the deterministic "silent" lab, every pruning
 * algorithm, and all three pipeline stages.
 */
const ScenarioRegistry &builtinScenarios();

} // namespace llcf

#endif // LLCF_SCENARIO_REGISTRY_HH
