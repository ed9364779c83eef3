/**
 * @file
 * Output-correctness checks of the benchmark. Each one compares
 * what the system under test produced with a reference that does
 * not come from the pass under test: schedules are re-validated
 * against an LSP rebuilt by `buildLayerSchedulingProblem`, sampled
 * outcomes against direct simulation of the source circuit, loss
 * survival against the closed-form product, and daemon replies
 * against an in-process compile. Every check returns "" when the
 * output is correct and a one-line reason otherwise.
 */

#ifndef DCBENCH_CHECKS_HH
#define DCBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/driver.hh"
#include "circuit/circuit.hh"
#include "core/lsp.hh"
#include "exec/result.hh"
#include "graph/digraph.hh"
#include "graph/graph.hh"

namespace dcbench
{

/**
 * Distributed schedule: partition covers [0, numQpus), the schedule
 * passes `validateSchedule` on the rebuilt LSP, every photon sits in
 * exactly one main task, the sync tasks are the cut edges, and the
 * reported metrics re-evaluate exactly. The rebuilt LSP is returned
 * through `lsp_out` when non-null.
 */
std::string checkDistributed(const dcmbqc::CompileReport &report,
                             const dcmbqc::DcMbqcConfig &config,
                             const dcmbqc::Graph &graph,
                             const dcmbqc::Digraph &deps,
                             dcmbqc::LayerSchedulingProblem *lsp_out =
                                 nullptr);

/**
 * Baseline schedule: every photon in exactly one layer, consistent
 * with `nodeLayer`, and the reported lifetime recomputes exactly.
 */
std::string checkBaseline(const dcmbqc::CompileReport &report,
                          const dcmbqc::Graph &graph,
                          const dcmbqc::Digraph &deps);

/**
 * Sampled outcomes and exact probabilities of a pattern backend
 * against the dense state of the source circuit applied to |+>^n.
 */
std::string checkOutcomesDense(const dcmbqc::Circuit &circuit,
                               const dcmbqc::ExecResult &result);

/**
 * Sampled outcomes of a stabilizer-exact backend against the
 * circuit-level tableau: every outcome must lie in the support and
 * carry probability 2^-r. At most `max_outcomes` distinct outcomes
 * are replayed.
 */
std::string checkOutcomesTableau(const dcmbqc::Circuit &circuit,
                                 const dcmbqc::ExecResult &result,
                                 int max_outcomes);

/** mc-loss survival within 5 sigma (+1e-3) of the analytic product. */
std::string checkLossSurvival(const dcmbqc::ExecResult &result);

/** Daemon reply schedule bytes against the in-process compile's. */
std::string checkReplySchedule(const dcmbqc::CompileReport &reply,
                               const std::vector<std::uint8_t> &expected);

/** Schedule bytes of a distributed report (empty when absent). */
std::vector<std::uint8_t>
scheduleBytes(const dcmbqc::CompileReport &report);

/**
 * Feed deliberately corrupted schedules, outcomes and replies to the
 * checks above; each must be rejected. Returns "" when all were.
 */
std::string selfCheck();

} // namespace dcbench

#endif // DCBENCH_CHECKS_HH
