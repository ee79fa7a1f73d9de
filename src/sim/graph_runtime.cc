#include "sim/graph_runtime.hh"

#include <chrono>

#include "obs/trace.hh"
#include "sim/obs_glue.hh"
#include "sim/stage_kernels.hh"

namespace forms::sim {

GraphRuntime::GraphRuntime(const compile::Graph &graph,
                           std::vector<admm::LayerState> &layers,
                           RuntimeConfig cfg)
    : graph_(graph), topo_(graph.topoOrder()), pools_(1), cfg_(cfg)
{
    execs_ = buildNodeExecs(graph_, topo_, layers, cfg_, pools_,
                            [](int) { return std::vector<int>{0}; });
}

GraphRuntime::~GraphRuntime() = default;

ThreadPool &
GraphRuntime::pool() const
{
    return cfg_.pool ? *cfg_.pool : ThreadPool::global();
}

size_t
GraphRuntime::nodes() const
{
    return execs_.size();
}

size_t
GraphRuntime::programmedNodes() const
{
    return pools_[0].size();
}

int64_t
GraphRuntime::totalCrossbars() const
{
    return pools_[0].totalCrossbars();
}

std::vector<GraphNodeAlloc>
GraphRuntime::allocation() const
{
    std::vector<GraphNodeAlloc> out;
    for (const NodeExec &e : execs_) {
        if (!e.engine)
            continue;
        GraphNodeAlloc a;
        a.nodeId = e.nodeId;
        a.name = e.name;
        a.outShape = graph_.node(e.nodeId).outShape;
        a.crossbars = e.mapped->numCrossbars();
        out.push_back(std::move(a));
    }
    return out;
}

void
GraphRuntime::resetPresentationStreams()
{
    nextImageId_ = 0;
}

Tensor
GraphRuntime::forward(const Tensor &batch, RuntimeReport *report)
{
    // Consecutive ids from the runtime-lifetime counter: the k-th
    // image overall draws from stream id k.
    const int64_t n = batch.dim(0);
    std::vector<uint64_t> ids(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i)
        ids[static_cast<size_t>(i)] =
            nextImageId_ + static_cast<uint64_t>(i);
    Tensor result = forwardRequests(batch, ids.data(), nullptr, report);
    nextImageId_ += static_cast<uint64_t>(n);
    return result;
}

Tensor
GraphRuntime::forwardRequests(const Tensor &batch, const uint64_t *ids,
                              std::vector<RuntimeReport> *per_request,
                              RuntimeReport *report)
{
    FORMS_TRACE_SCOPE("GraphRuntime::forward");
    const auto t0 = std::chrono::steady_clock::now();
    const int64_t n = batch.dim(0);
    ThreadPool &tp = pool();
    // Route the shared tensor kernels (relu, pooling, im2col) through
    // this runtime's pool too: every node shards on one pool.
    PoolScope scope(tp);

    std::vector<arch::EngineStats> node_stats(execs_.size());
    std::vector<arch::EngineStats> per_image;
    if (per_request)
        per_image.resize(execs_.size() * static_cast<size_t>(n));
    Tensor result = runGraph(graph_, execs_, batch, ids, tp,
                             cfg_.mapping.inputBits, node_stats, {},
                             per_request ? per_image.data() : nullptr, n);
    if (per_request)
        recordPerImageRows(execs_, per_image.data(), n, n, *per_request);

    const double wall_ms = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - t0).count();
    if (report) {
        recordNodeRows(execs_, node_stats, *report);
        report->wallMs += wall_ms;
    }
    if (cfg_.metrics) {
        // Record this forward alone (a fresh report), so the metric
        // counters accumulate per-call deltas regardless of whether
        // the caller reuses its report across forwards.
        RuntimeReport mrep;
        recordNodeRows(execs_, node_stats, mrep);
        mrep.wallMs = wall_ms;
        recordRuntimeMetrics(*cfg_.metrics, mrep);
    }
    return result;
}

double
GraphRuntime::accuracy(const Tensor &images,
                       const std::vector<int> &labels,
                       RuntimeReport *report)
{
    return logitsAccuracy(forward(images, report), labels);
}

} // namespace forms::sim
