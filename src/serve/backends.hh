/**
 * @file
 * serve::Backend adapters over the offline executor.
 *
 * The adapters borrow (or own) a sim::PipelineRuntime and forward
 * coalesced micro-batches through its request-keyed entry point
 * (forwardRequests), which keys every per-presentation RNG stream by
 * the stable request id — the mechanism behind the serving
 * determinism contract (docs/SERVING.md). They are called only from
 * the server's single batcher thread, matching the runtimes'
 * one-forward-at-a-time requirement.
 */

#ifndef FORMS_SERVE_BACKENDS_HH
#define FORMS_SERVE_BACKENDS_HH

#include <memory>
#include <mutex>
#include <vector>

#include "serve/server.hh"
#include "sim/pipeline_runtime.hh"

namespace forms::serve {

/**
 * Serves batches on a borrowed sim::PipelineRuntime (a single-chip
 * sim::GraphRuntime included).
 */
class PipelineBackend : public Backend
{
  public:
    explicit PipelineBackend(sim::PipelineRuntime &rt) : rt_(rt) {}

    Tensor run(const Tensor &batch, const uint64_t *ids,
               std::vector<sim::RuntimeReport> &per_request) override;

  private:
    sim::PipelineRuntime &rt_;
};

/** The single-chip name of PipelineBackend. */
using GraphBackend = PipelineBackend;

/**
 * Chip-failure-tolerant pipeline backend: owns its PipelineRuntime
 * and rebuilds it when a fleet chip is killed.
 *
 * killChip() (safe from any thread) marks a chip dead; the next run()
 * call observes the kill, re-partitions the graph over the surviving
 * chips, programs a fresh runtime — conductances are a pure function
 * of the seeded config, so the rebuilt fleet serves bit-identical
 * responses — and throws serve::ChipFailure to signal that the batch
 * in flight died with the chip. The server requeues that batch; its
 * retry (and every later batch) runs on the survivors. Because
 * forwardRequests keys all per-presentation randomness by request id,
 * a response served after any number of failovers still memcmp-equals
 * a single-request reference on any fleet size (docs/SERVING.md).
 *
 * When the last chip dies, run() keeps throwing ChipFailure(-1); the
 * server then drains each request's retry budget and resolves it with
 * Status::Requeued.
 *
 * Heterogeneous fleets: a killed chip's ChipSpec leaves with it — the
 * surviving fleet re-partitions under the surviving cost vectors.
 */
class FailoverBackend : public Backend
{
  public:
    /**
     * @param graph compiled, shape-inferred DAG (borrowed)
     * @param layers compression state (borrowed, mutable for
     *        programming) — must outlive the backend
     * @param cfg pipeline runtime config used for every (re)build
     * @param sched partitioner config for the full fleet;
     *        sched.chips is the fleet size chips are killed from
     */
    FailoverBackend(const compile::Graph &graph,
                    std::vector<admm::LayerState> &layers,
                    sim::PipelineRuntimeConfig cfg,
                    compile::ScheduleConfig sched);

    Tensor run(const Tensor &batch, const uint64_t *ids,
               std::vector<sim::RuntimeReport> &per_request) override;

    /**
     * Mark fleet chip `chip` (index into the original fleet) dead.
     * Safe from any thread; idempotent per chip. The failure takes
     * effect at the next run() on the batcher thread.
     */
    void killChip(int chip);

    /** Original fleet size. */
    int fleetChips() const { return static_cast<int>(alive_.size()); }

    /** Currently healthy chips (pending kills already counted out). */
    int aliveChips() const;

    /** Completed failovers (kills observed by run()). */
    int failovers() const;

  private:
    /** Re-partition + reprogram over the surviving chips. */
    void rebuild();

    const compile::Graph &graph_;
    std::vector<admm::LayerState> &layers_;
    sim::PipelineRuntimeConfig cfg_;
    compile::ScheduleConfig sched_;

    mutable std::mutex mu_;
    std::vector<uint8_t> alive_;     //!< by original fleet index
    std::vector<int> pendingKills_;  //!< killed, not yet observed
    int failovers_ = 0;
    std::unique_ptr<sim::PipelineRuntime> rt_;
};

} // namespace forms::serve

#endif // FORMS_SERVE_BACKENDS_HH
