/**
 * @file
 * Incremental state-vector pattern replay: sim/pattern_runner.cc
 * restructured as a stepper (the concept of exec/shot_tree.hh); the
 * statevector backend samples every shot through it with
 * `runShotNaive`. Every measurement — pattern node or output
 * wire — is a decision, because the dense simulator draws one
 * uniform per measurement whether or not the outcome is effectively
 * deterministic; the deterministic work between decisions (lazy
 * qubit creation, entangling, byproducts, the wire-order permute) is
 * what prefix sharing amortizes.
 *
 * Sampling a shot through this stepper consumes the RNG exactly as
 * `runPattern` followed by the per-wire measureZAndRemove loop in
 * the statevector backend did, producing bit-identical outcomes.
 */

#ifndef DCMBQC_SIM_PATTERN_STEPPER_HH
#define DCMBQC_SIM_PATTERN_STEPPER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "mbqc/pattern.hh"
#include "sim/statevector.hh"

namespace dcmbqc
{

class SvPatternStepper
{
  public:
    struct Result
    {
        std::string bits;
    };

    struct State
    {
        StateVector state;
        /** slot[v]: simulator qubit of node v (-1 dead/uncreated). */
        std::vector<int> slot;
        std::vector<NodeId> slotOwner; ///< simulator qubit -> node
        std::vector<int> sx, sz;
        NodeId nextToCreate = 0;
        std::size_t step = 0; ///< index into the measurement order
        std::size_t wire = 0; ///< index into the output wires
        bool finalized = false; ///< permuted into wire order
        /** Pending decision; for pattern steps the adapted angle. */
        bool pending = false;
        double pendingAngle = 0.0;
        std::string bits;
    };

    /** The pattern must outlive the stepper. */
    SvPatternStepper(const Pattern &pattern, bool apply_byproducts)
        : pattern_(&pattern), applyByproducts_(apply_byproducts)
    {
    }

    State root() const;
    bool advance(State &s) const;
    double prob0(const State &s) const;

    /** Identical RNG use to an unforced measure*AndRemove call. */
    int draw(Rng &rng, double p0) const
    {
        return rng.uniform() < p0 ? 0 : 1;
    }

    void applyOutcome(State &s, int outcome) const;
    Result result(const State &s) const { return {s.bits}; }
    std::size_t stateBytes(const State &s) const;

  private:
    void ensureCreated(State &s, NodeId v) const;
    void removeSlot(State &s, NodeId v) const;
    void finishMeasure(State &s, NodeId m, int outcome) const;
    void finalize(State &s) const;

    const Pattern *pattern_;
    bool applyByproducts_;
};

} // namespace dcmbqc

#endif // DCMBQC_SIM_PATTERN_STEPPER_HH
