/**
 * @file
 * Numeric core of sim::PipelineRuntime, the simulator's one executor
 * (a single-chip sim::GraphRuntime is its one-stage case).
 *
 * buildNodeExecs() programs each matrix node once — its mapping plus
 * one immutable engine — and records the chips its schedule stage
 * occupies; runGraph() streams a batch through the DAG. Every matrix
 * node, conv or dense, runs the one stage FORMS runs for every
 * polarized layer:
 *
 *     (im2col) -> quantize -> mvmKeyed -> dequantize(scale, bias)
 *
 * The op dispatch, the refcounted buffer walk, the Add-join
 * accumulation order and the stage kernels live only here, so every
 * chip count, micro-batch size and replication factor executes the
 * same arithmetic (pinned by tests/test_pipeline_runtime.cc,
 * tests/test_golden.cc and bench_fig15_multichip). The kernels carry
 * the DESIGN.md §3 determinism contract: parallel loops write
 * disjoint elements, per-presentation randomness comes from streams
 * keyed by per-image ids, and per-batch EngineStats merge in
 * presentation order.
 *
 * Thread-safety: buildNodeExecs() and runGraph() must be called from
 * one thread per node list (programmed nodes reuse a per-node im2col
 * scratch); runGraph() shards its work across the given ThreadPool.
 */

#ifndef FORMS_SIM_GRAPH_EXEC_HH
#define FORMS_SIM_GRAPH_EXEC_HH

#include <memory>

#include "arch/engine.hh"
#include "arch/remap.hh"
#include "arch/zero_skip.hh"
#include "compile/schedule.hh"
#include "sim/runtime.hh"

namespace forms::sim {

/**
 * How one programmed node quantizes its input presentations — the
 * single place the arch::ScaleMode switch reaches the kernels.
 * buildNodeExecs resolves the runtime config into one of these per
 * node: in Static mode from cfg.calibration, else from the node's
 * attached Node::inScale, fatal()ing at construction when neither
 * covers it.
 */
struct StageScale
{
    arch::ScaleMode mode = arch::ScaleMode::PerPresentation;

    /** Static mode: the calibrated quantizer step for this stage. */
    float staticScale = 0.0f;

    /**
     * Calibration hook: when set, every presentation's pre-quantization
     * abs-max is appended here in presentation order (used by
     * sim::Calibrator; normal inference leaves it null).
     */
    std::vector<float> *record = nullptr;

    /**
     * Calibration hook for the bit-level activity model: when set,
     * every quantized presentation's fragment EICs (consecutive-row
     * fragments of `eicFragSize`, matching the engine's input
     * fragmenting) are folded into this histogram, in presentation
     * order. Feeds CalibEntry::avgEic; normal inference leaves it
     * null.
     */
    arch::EicStats *eicStats = nullptr;
    int eicFragSize = 0;
};

/**
 * Quantize the presentations of one programmed stage. Presentation
 * j's row r lives at base[j*j_stride + r*r_stride] (strided access
 * covers both the column-major im2col layout and row-major dense
 * inputs); negative values map to zero (the bit-serial input encoding
 * is unsigned, DESIGN.md §2). Per-presentation dequantization scales
 * land in `scales`; quantValues/quantClipped counters fold into
 * `stats` in presentation order, and — when `per_image` is given —
 * into image j/ppi's accumulator.
 */
std::vector<std::vector<uint32_t>>
quantizePresentations(ThreadPool &tp, int64_t count, int64_t rows,
                      int bits, const StageScale &sc,
                      std::vector<float> &scales, const float *base,
                      int64_t j_stride, int64_t r_stride,
                      arch::EngineStats *stats, int64_t ppi = 0,
                      arch::EngineStats *per_image = nullptr);

/**
 * One replica slice's worth of modeled work, as runGraph hands it
 * back: the chip that ran it, the ADC-limited model-time delta the
 * slice added, the activation scalars it quantized, and the engine's
 * input bit-cycle counters — presented vs zero-skip-elided — so the
 * pipeline timing layer can report each ADC phase's measured EIC
 * fraction without re-deriving it.
 */
struct PhaseSample
{
    int chip = -1;
    double adcNs = 0.0;
    uint64_t quantValues = 0;
    uint64_t bitCycles = 0;      //!< input bit cycles presented
    uint64_t skippedCycles = 0;  //!< bit cycles elided by zero-skip
};

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
     * chips (several for a replicated stage). A replicated node's R
     * chips would all hold the same conductances (device variation
     * draws from a stream seeded only by cfg.variationSeed, faults are
     * keyed by node id), so every replica slice runs on `engine`.
     * Replica r of R processes the contiguous slice
     * [floor(P*r/R), floor(P*(r+1)/R)) of each micro-batch's P
     * presentations under the presentations' own stream keys, and
     * slices execute (and fold stats) in ascending replica order — so
     * outputs AND the stat fold are bit-identical to one unsliced call
     * for any replica count (DESIGN.md §5; pinned by test_engine
     * MvmKeyed.*). The slices exist for the per-chip PhaseSamples.
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
 * Build the executable form of every node of `g`, in its topological
 * order: map and program each matrix node once, record the chips of
 * its `sched` stage, snapshot eval-mode BN affines, copy conv/pool
 * geometry and the digital output stage, and resolve each matrix
 * node's StageScale.
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
 *        batch image (required). A matrix node's presentation j
 *        (image j/ppi, within-image index j%ppi, for ppi
 *        presentations per image — the conv im2col plane, 1 for
 *        dense) draws its RNG from stream key
 *        image_ids[j/ppi] * ppi + j%ppi. Offline runs pass consecutive
 *        ids; the serving layer passes request ids, which makes
 *        serving batch-invariant (docs/SERVING.md).
 * @param stats per-exec EngineStats accumulators (parallel to
 *        `execs`); each programmed node's batch stats merge into its
 *        slot in presentation order — replicated nodes fold their
 *        replica slices in ascending replica (= presentation) order
 *        into the same slot — so reusing the same vector across
 *        calls reproduces one serial fold over all images
 * @param phases receives one PhaseSample per (programmed node,
 *        replica), appended in execution order
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
                std::vector<PhaseSample> &phases,
                arch::EngineStats *per_image = nullptr,
                int64_t per_image_stride = 0);

/**
 * Merge every programmed exec's stats into `report` rows: one row per
 * programmed node in topological order, exec `idx`'s stats read from
 * stats[idx * stride]. Rows merge by position, so a reused report
 * sums per-node stats instead of appending duplicate rows.
 * runGraph's flat accumulators are read with stride 1; image i's
 * slice of its `per_image` channel, with `stats` = per_image + i and
 * the channel's stride, yields that image's report —
 * bitwise-identical to a single-image forward's under the same
 * stream ids.
 */
void recordNodeRows(const std::vector<NodeExec> &execs,
                    const arch::EngineStats *stats, int64_t stride,
                    RuntimeReport &report);

} // namespace forms::sim

#endif // FORMS_SIM_GRAPH_EXEC_HH
