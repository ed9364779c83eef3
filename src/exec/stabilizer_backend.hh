/**
 * @file
 * Stabilizer-tableau execution backend: runs Clifford measurement
 * patterns (every adapted angle a multiple of pi/2) on the
 * Aaronson-Gottesman simulator, scaling to thousands of photons
 * where the dense backend stops at ~20 wires. An XY-plane
 * measurement at angle k*pi/2 is performed by conjugating with the
 * phase gate P(-k*pi/2) in {I, Sdg, Z, S} and measuring X. Each
 * sampled bitstring carries its exact probability 2^-r (r = number
 * of non-deterministic output measurements), which the differential
 * tests check against the statevector backend's amplitudes. The
 * Clifford check and the shot loop are shared with the schedule
 * backend, which replays the same pattern in schedule order.
 */

#ifndef DCMBQC_EXEC_STABILIZER_BACKEND_HH
#define DCMBQC_EXEC_STABILIZER_BACKEND_HH

#include <vector>

#include "common/types.hh"
#include "exec/backend.hh"
#include "exec/noise_channel.hh"

namespace dcmbqc
{

/** Clifford-pattern backend over sim/stabilizer. */
class StabilizerBackend : public ExecutionBackend
{
  public:
    const char *name() const override { return "stabilizer"; }

    BackendCapabilities capabilities() const override;

    Expected<ExecResult> run(const ExecProgram &program,
                             const ExecOptions &options) const override;
};

/**
 * The Clifford check of the stabilizer and schedule backends: the
 * quarter-turn index k (angle ~= k*pi/2, k in [0,4)) of every
 * measured node, 0 for outputs, or FailedPrecondition naming
 * `backend` at the first angle that is not a multiple of pi/2.
 */
Expected<std::vector<int>> cliffordQuarterTurns(const Pattern &pattern,
                                                const char *backend);

/**
 * Sample `options.shots` shots of a Clifford pattern replayed in
 * `order` (a correction-valid measurement order) and tally them into
 * `result`, whose `threads` must be set. Each shot is charged
 * `channel` on its noise stream. Lost shots go to lostShots /
 * lostPhotons, the rest to counts. With byproducts applied and no
 * channel, each outcome's chain-rule probability 2^-r (r random
 * output measurements) goes to probabilities; equal bitstrings must
 * agree on it, and a mismatch is an Internal error.
 */
Status sampleCliffordShots(const Pattern &pattern,
                           const std::vector<NodeId> &order,
                           const std::vector<int> &base_turns,
                           const ExecOptions &options,
                           const NoiseChannel &channel,
                           ExecResult &result);

} // namespace dcmbqc

#endif // DCMBQC_EXEC_STABILIZER_BACKEND_HH
