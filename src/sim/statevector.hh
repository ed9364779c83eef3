/**
 * @file
 * Dense state-vector quantum simulator with dynamic qubit
 * allocation. The MBQC pattern runner allocates a fresh qubit per
 * pattern node when it first participates in an entangling
 * operation and destroys it on measurement, so the live width stays
 * near the circuit width even for patterns with thousands of nodes.
 */

#ifndef DCMBQC_SIM_STATEVECTOR_HH
#define DCMBQC_SIM_STATEVECTOR_HH

#include <complex>
#include <vector>

#include "circuit/circuit.hh"
#include "common/rng.hh"

namespace dcmbqc
{

/** Result of a destructive or projective measurement. */
struct MeasureResult
{
    int outcome;        ///< 0 or 1
    double probability; ///< probability of the returned outcome
};

/**
 * A pure state on a variable number of qubits. Qubit q corresponds
 * to bit q of the amplitude index.
 */
class StateVector
{
  public:
    using Amplitude = std::complex<double>;

    /** Zero-qubit state (single amplitude 1). */
    StateVector();

    /** n qubits, all |0> (or all |+> when plus_basis). */
    explicit StateVector(int num_qubits, bool plus_basis = false);

    int numQubits() const { return numQubits_; }
    const std::vector<Amplitude> &amplitudes() const { return amps_; }

    /** Append a qubit in |0> as the new highest index. */
    int addQubitZero();

    /** Append a qubit in |+> as the new highest index. */
    int addQubitPlus();

    /** Apply an arbitrary single-qubit unitary. */
    void apply1q(int q, Amplitude m00, Amplitude m01, Amplitude m10,
                 Amplitude m11);

    void applyH(int q);
    void applyX(int q);
    void applyY(int q);
    void applyZ(int q);
    void applyS(int q);
    void applySdg(int q);
    void applyT(int q);
    void applyTdg(int q);
    void applyRX(int q, double theta);
    void applyRY(int q, double theta);
    void applyRZ(int q, double theta);

    void applyCZ(int a, int b);
    void applyCNOT(int control, int target);
    void applyCP(int a, int b, double theta);
    void applyRZZ(int a, int b, double theta);
    void applySWAP(int a, int b);
    void applyCCX(int c0, int c1, int target);

    /** Apply a gate from the circuit IR (exact, no decomposition). */
    void applyGate(const Gate &gate);

    /** Apply a whole circuit. */
    void applyCircuit(const Circuit &circuit);

    /**
     * Measure qubit q in the XY-plane basis
     * {(|0> + e^{i theta}|1>)/sqrt2, (|0> - e^{i theta}|1>)/sqrt2}
     * and REMOVE the qubit from the register (higher qubits shift
     * down by one).
     *
     * @param forced_outcome -1 samples from rng; 0/1 forces the
     *        outcome (probability reported for the forced branch;
     *        forcing a zero-probability branch is an error).
     */
    MeasureResult measureXYAndRemove(int q, double theta, Rng &rng,
                                     int forced_outcome = -1);

    /** Measure qubit q in the Z basis and remove it. */
    MeasureResult measureZAndRemove(int q, Rng &rng,
                                    int forced_outcome = -1);

    /** Squared norm (should stay 1 within rounding). */
    double norm() const;

    /** |<a|b>|^2, states must have equal qubit counts. */
    static double fidelity(const StateVector &a, const StateVector &b);

    /**
     * Permute qubits so that qubit new_order[i] of *this becomes
     * qubit i of the result (used to compare pattern outputs in wire
     * order).
     */
    StateVector permuted(const std::vector<int> &new_order) const;

  private:
    /** Shared implementation of basis measurement + removal. */
    MeasureResult measureAndRemove(int q, Amplitude b0, Amplitude b1,
                                   Rng &rng, int forced_outcome);

    int numQubits_;
    std::vector<Amplitude> amps_;
};

} // namespace dcmbqc

#endif // DCMBQC_SIM_STATEVECTOR_HH
