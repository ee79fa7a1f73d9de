/**
 * @file
 * DAG executor for compiled layer graphs (compile/graph.hh) on the
 * simulated crossbar substrate.
 *
 * GraphRuntime programs one CrossbarEngine per matrix node (Conv /
 * Dense) of the graph and streams whole batches through the DAG in a
 * fixed topological order, with reference-counted intermediate buffers
 * (a node's output is released as soon as its last consumer has run)
 * and elementwise-add join nodes for residual topologies. Unfolded
 * BatchNorm nodes execute functionally in eval mode.
 *
 * Determinism contract (DESIGN.md §3/§4): logits and merged per-node
 * EngineStats are bit-identical for any thread count. The node
 * schedule is the deterministic topological order — independent of
 * the pool — every stage kernel parallelizes only over disjoint-write
 * axes, join nodes accumulate operands in fixed order, and each
 * presentation's RNG stream is keyed by (variationSeed, image id,
 * within-image presentation index).
 *
 * Thread-safety: one forward()/accuracy() call at a time per runtime
 * (the image-id counter and the per-node im2col scratch are mutable);
 * the call itself shards across the configured ThreadPool internally. Distinct
 * GraphRuntime instances are independent. The borrowed graph and
 * layer states must not be mutated while the runtime is alive.
 *
 * Typical flow:
 *
 *     auto graph = compile::lowerNetwork(net);
 *     compile::foldBatchNorm(graph);
 *     auto states = sim::snapshotCompress(net, frag, bits);
 *     sim::GraphRuntime rt(graph, states, cfg);
 *     Tensor logits = rt.forward(batch, &report);
 */

#ifndef FORMS_SIM_GRAPH_RUNTIME_HH
#define FORMS_SIM_GRAPH_RUNTIME_HH

#include "compile/graph.hh"
#include "sim/graph_exec.hh"
#include "sim/runtime.hh"

namespace forms::sim {

/** Crossbar allocation of one programmed graph node. */
struct GraphNodeAlloc
{
    int nodeId = -1;
    std::string name;
    Shape outShape;        //!< per-sample shape (from inferShapes)
    int64_t crossbars = 0;
};

/** Executes a compiled, folded, compressed layer graph. */
class GraphRuntime
{
  public:
    /**
     * Map and program every Conv/Dense node of `graph`.
     *
     * @param graph the compiled DAG; borrowed (and its backing
     *        nn::Network) must outlive the runtime
     * @param layers per-layer compression state (matched to matrix
     *        nodes by weight-tensor identity) — build it *after*
     *        foldBatchNorm so the projections see folded weights
     * @param cfg geometry, engine knobs and the pool to shard on
     */
    GraphRuntime(const compile::Graph &graph,
                 std::vector<admm::LayerState> &layers,
                 RuntimeConfig cfg);
    ~GraphRuntime();

    GraphRuntime(const GraphRuntime &) = delete;
    GraphRuntime &operator=(const GraphRuntime &) = delete;

    /**
     * Stream a whole NCHW batch through the DAG on the simulated
     * crossbars. Returns the graph output (batch x classes for a
     * classifier). Per-node stats merge into `report` rows in
     * topological order.
     */
    Tensor forward(const Tensor &batch, RuntimeReport *report = nullptr);

    /**
     * Stream a batch of independently-identified images: image i draws
     * all its per-presentation randomness from streams keyed by
     * `ids[i]` (one id per batch image) instead of the runtime's
     * implicit id counter. A request's logits — and, when
     * `per_request` is given, its RuntimeReport (one per image,
     * resized/merged in batch order) — are therefore bit-identical no
     * matter which batch the request lands in or in what order
     * requests arrived: the serving layer's batch-invariance contract
     * (docs/SERVING.md). Does not consume ids from the counter
     * forward() uses.
     */
    Tensor forwardRequests(const Tensor &batch, const uint64_t *ids,
                           std::vector<RuntimeReport> *per_request = nullptr,
                           RuntimeReport *report = nullptr);

    /** Fraction of argmax(logits) == label over a labelled batch. */
    double accuracy(const Tensor &images, const std::vector<int> &labels,
                    RuntimeReport *report = nullptr);

    /**
     * Restart the forward() image-id counter at 0, so the next
     * forward() replays the same randomness as a fresh runtime.
     */
    void resetPresentationStreams();

    /** Number of executable nodes (programmed + functional). */
    size_t nodes() const;

    /** Number of crossbar-programmed (Conv/Dense) nodes. */
    size_t programmedNodes() const;

    /** Total crossbars programmed across all nodes. */
    int64_t totalCrossbars() const;

    /** Per-programmed-node crossbar allocation, in topological order. */
    std::vector<GraphNodeAlloc> allocation() const;

  private:
    const compile::Graph &graph_;
    std::vector<int> topo_;               //!< fixed node schedule
    std::vector<arch::EnginePool> pools_; //!< one pool (single chip)
    std::vector<NodeExec> execs_;         //!< parallel to topo_
    RuntimeConfig cfg_;
    uint64_t nextImageId_ = 0;            //!< forward()'s id counter

    ThreadPool &pool() const;
};

} // namespace forms::sim

#endif // FORMS_SIM_GRAPH_RUNTIME_HH
