/**
 * @file
 * DAG-execution core of sim::PipelineRuntime, the simulator's one
 * executor (a single-chip sim::GraphRuntime is its one-stage case).
 *
 * buildNodeExecs() programs each matrix node once — its mapping plus
 * one immutable engine — and records the chips its schedule stage
 * occupies; runGraph() streams a batch through the DAG. The op
 * dispatch, the refcounted buffer walk and the Add-join accumulation
 * order live only here, so every chip count, micro-batch size and
 * replication factor executes the same arithmetic (pinned by
 * tests/test_pipeline_runtime.cc, tests/test_golden.cc and
 * bench_fig15_multichip).
 *
 * Thread-safety: buildNodeExecs() and runGraph() must be called from
 * one thread per node list (programmed nodes reuse a per-node im2col
 * scratch); runGraph() shards its work across the given ThreadPool.
 */

#ifndef FORMS_SIM_GRAPH_EXEC_HH
#define FORMS_SIM_GRAPH_EXEC_HH

#include <functional>
#include <memory>

#include "arch/engine.hh"
#include "arch/remap.hh"
#include "compile/schedule.hh"
#include "sim/runtime.hh"
#include "sim/stage_kernels.hh"

namespace forms::sim {

/**
 * One executable node of a compiled DAG. A programmed node owns its
 * mapping and its one engine; both are heap-pinned (the engine
 * borrows the mapping), so the exec is movable but not copyable.
 */
struct NodeExec
{
    compile::Op op = compile::Op::Input;
    int nodeId = -1;
    std::string name;
    std::vector<int> inputs;   //!< producer node ids

    /**
     * Chips hosting the node, primary first: its schedule stage's
     * chips (several for a replicated stage). Timing and per-chip
     * accounting only — every replica's slice runs on `engine`, which
     * is bitwise what R identically programmed engines would compute
     * (see sim::StageEngines for the slicing contract).
     */
    std::vector<int> replicaChips;

    // Conv / Dense: the programmed hardware (null for other ops).
    std::unique_ptr<arch::MappedLayer> mapped;
    std::unique_ptr<arch::CrossbarEngine> engine;
    arch::RemapReport remap;   //!< spare-remap outcome (empty w/o faults)
    int outC = 0, k = 0, stride = 0, pad = 0;
    std::vector<float> bias;
    std::vector<float> chanScale;  //!< digital BN fold (may be empty)
    StageScale scale;              //!< resolved input-quantization mode

    // Pooling geometry.
    int poolK = 0, poolStride = 0;

    // Unfolded BatchNorm, eval mode: y = x * scale[c] + shift[c].
    std::vector<float> bnScale, bnShift;

    // Conv: reused im2col buffer — steady-state micro-batches lower
    // into the same storage instead of allocating per call.
    Tensor im2colScratch;
};

/**
 * Per-phase timing callback of runGraph, fired once per (programmed
 * node, replica) in execution order: exec index, replica index, and
 * the slice's PhaseSample (sim/stage_kernels.hh) — the ADC-limited
 * model-time delta, values quantized, and the presented/skipped input
 * bit-cycle counters. The pipeline runtime's intra-chip tile pipeline
 * model (sim/perf_model.hh) turns these into per-phase busy intervals
 * and per-phase measured EIC fractions.
 */
using PhaseSink =
    std::function<void(size_t, int, const PhaseSample &)>;

/**
 * Build the executable form of every node of `g`, in its topological
 * order: map and program each matrix node once, record the chips of
 * its `sched` stage, snapshot eval-mode BN affines, copy conv/pool
 * geometry and the digital output stage, and resolve each matrix
 * node's input-quantization scale (in arch::ScaleMode::Static, from
 * cfg.calibration or the node's attached Node::inScale — fatal()s
 * when neither covers a programmed node).
 *
 * @param sched stage partition of this same graph; fatal()s when a
 *        node is missing from it
 * @param layers per-layer compression state, matched to matrix nodes
 *        by weight-tensor identity; fatal()s when a node has none
 */
std::vector<NodeExec>
buildNodeExecs(const compile::Graph &g, const compile::Schedule &sched,
               std::vector<admm::LayerState> &layers,
               const RuntimeConfig &cfg);

/**
 * Stream one NCHW batch through the DAG in `execs` order (a
 * topological order of `g`) with reference-counted intermediate
 * buffers and fixed left-then-right Add joins (DESIGN.md §4).
 * Returns a copy of the graph output.
 *
 * @param image_ids stable per-image presentation-stream ids, one per
 *        batch image (required): every programmed node keys its
 *        per-presentation RNG streams by image id
 *        (sim::StageEngines::imageIds). The offline runtimes pass
 *        consecutive ids from a runtime-lifetime counter; the serving
 *        layer passes request ids, which makes serving
 *        batch-invariant.
 * @param stats per-exec EngineStats accumulators (parallel to
 *        `execs`); each programmed node's batch stats merge into its
 *        slot in presentation order — replicated nodes fold their
 *        replica slices in ascending replica (= presentation) order
 *        into the same slot — so reusing the same vector across
 *        calls reproduces one serial fold over all images
 * @param on_phase optional per-(node, replica) timing sink; see
 *        PhaseSink
 * @param per_image optional per-(exec, image) stats accumulators:
 *        exec `idx`'s stats for batch image i fold into
 *        per_image[idx * per_image_stride + i], each group
 *        bitwise-identical to a single-image forward's node
 *        accumulator. The flat per-node fold into `stats` is
 *        unchanged. The stride lets the pipeline runtime aim
 *        micro-batch slices into one full-batch array.
 *
 * `execs` is mutable because programmed nodes reuse their conv
 * im2col scratch across calls.
 */
Tensor runGraph(const compile::Graph &g, std::vector<NodeExec> &execs,
                const Tensor &batch, const uint64_t *image_ids,
                ThreadPool &tp, int input_bits,
                std::vector<arch::EngineStats> &stats,
                const PhaseSink &on_phase = {},
                arch::EngineStats *per_image = nullptr,
                int64_t per_image_stride = 0);

/**
 * Merge every programmed exec's accumulated stats into `report` rows
 * (one row per programmed node, topological order; recordLayer
 * semantics, so a reused report accumulates).
 */
void recordNodeRows(const std::vector<NodeExec> &execs,
                    const std::vector<arch::EngineStats> &stats,
                    RuntimeReport &report);

/**
 * Expand per-(exec, image) accumulators (runGraph's `per_image`
 * channel, laid out [idx * stride + i]) into one RuntimeReport per
 * image: image i's rows carry the same names, order and crossbar
 * counts as recordNodeRows, with stats covering only that image's
 * presentations — bitwise-identical to the report of a single-image
 * forward under the same stream ids. `reports` is resized to
 * `images`; existing rows merge (recordLayer semantics).
 */
void recordPerImageRows(const std::vector<NodeExec> &execs,
                        const arch::EngineStats *per_image,
                        int64_t stride, int64_t images,
                        std::vector<RuntimeReport> &reports);

} // namespace forms::sim

#endif // FORMS_SIM_GRAPH_EXEC_HH
