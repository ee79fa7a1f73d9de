/**
 * @file
 * Single-chip entry point of the simulator's one executor.
 *
 * A single-chip FORMS run is the one-stage case of the MCU pipeline
 * (paper Fig. 12): GraphRuntime is a sim::PipelineRuntime on a 1-chip
 * schedule whose micro-batch is the whole batch, so every forward is
 * one runGraph call over the DAG in its fixed topological order, with
 * reference-counted intermediate buffers and elementwise-add join
 * nodes for residual topologies. Everything else — forward,
 * forwardRequests, accuracy, reports, metrics, the determinism and
 * thread-safety contracts — is PipelineRuntime's (its header).
 *
 * The graph must have run inferShapes() (the partitioner and the
 * input-shape check read the inferred shapes).
 *
 * Typical flow:
 *
 *     auto graph = compile::lowerNetwork(net);
 *     compile::foldBatchNorm(graph);
 *     graph.inferShapes({3, 32, 32});
 *     auto states = sim::snapshotCompress(net, frag, bits);
 *     sim::GraphRuntime rt(graph, states, cfg);
 *     Tensor logits = rt.forward(batch, &report);
 */

#ifndef FORMS_SIM_GRAPH_RUNTIME_HH
#define FORMS_SIM_GRAPH_RUNTIME_HH

#include <climits>

#include "sim/pipeline_runtime.hh"

namespace forms::sim {

/** A one-chip, whole-batch PipelineRuntime. */
class GraphRuntime : public PipelineRuntime
{
  public:
    /**
     * Map and program every Conv/Dense node of `graph`.
     *
     * @param graph the compiled, shape-inferred DAG; borrowed (and its
     *        backing nn::Network) must outlive the runtime
     * @param layers per-layer compression state (matched to matrix
     *        nodes by weight-tensor identity) — build it *after*
     *        foldBatchNorm so the projections see folded weights
     * @param cfg geometry, engine knobs and the pool to shard on
     */
    GraphRuntime(const compile::Graph &graph,
                 std::vector<admm::LayerState> &layers, RuntimeConfig cfg)
        : PipelineRuntime(graph, compile::Schedule::partition(graph, {}),
                          layers,
                          {cfg, /*microBatch=*/INT_MAX, /*link=*/{},
                           /*tile=*/{}, /*trace=*/nullptr})
    {
    }
};

} // namespace forms::sim

#endif // FORMS_SIM_GRAPH_RUNTIME_HH
