/**
 * @file
 * Monte-Carlo photon-loss execution backend: samples loss over a
 * *compiled distributed schedule* (or a single-QPU baseline).
 * Per-photon storage durations are reconstructed from the schedule
 * by `buildExposure` (fusee waits on intra-QPU edges + measuree
 * waits from the dependency recurrence, exactly Algorithm 1's
 * accounting), and every shot draws through the `NoiseChannel` the
 * other backends use: the configured noise model, or by default the
 * delay line of `ExecOptions::lossModel`. Reports the sampled
 * survival rate alongside the analytic success probability so drift
 * between the two flags a modelling bug.
 */

#ifndef DCMBQC_EXEC_LOSS_BACKEND_HH
#define DCMBQC_EXEC_LOSS_BACKEND_HH

#include <vector>

#include "common/types.hh"
#include "exec/backend.hh"

namespace dcmbqc
{

/** Loss-sampling backend over a compiled schedule. */
class MonteCarloLossBackend : public ExecutionBackend
{
  public:
    const char *name() const override { return "mc-loss"; }

    BackendCapabilities capabilities() const override;

    Expected<ExecResult> run(const ExecProgram &program,
                             const ExecOptions &options) const override;
};

/**
 * Physical generation cycle of every photon under a distributed
 * schedule: the start slot of the main task hosting the photon,
 * scaled by the PL ratio. Rebuilt from the result alone (partition
 * members + local layer indices enumerate main tasks QPU-major,
 * matching the LSP builder). Inconsistent payloads (e.g. a decoded
 * artifact whose partition disagrees with the graph) come back as
 * Status.
 */
Expected<std::vector<TimeSlot>>
schedulePhotonTimes(const DcMbqcResult &result, NodeId num_nodes);

} // namespace dcmbqc

#endif // DCMBQC_EXEC_LOSS_BACKEND_HH
