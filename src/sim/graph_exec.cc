#include "sim/graph_exec.hh"

#include <algorithm>
#include <cmath>

#include "compile/calibration.hh"
#include "nn/layers.hh"
#include "obs/trace.hh"
#include "tensor/ops.hh"

namespace forms::sim {

std::vector<std::vector<uint32_t>>
quantizePresentations(ThreadPool &tp, int64_t count, int64_t rows,
                      int bits, const StageScale &sc,
                      std::vector<float> &scales, const float *base,
                      int64_t j_stride, int64_t r_stride,
                      arch::EngineStats *stats, int64_t ppi,
                      arch::EngineStats *per_image)
{
    const bool is_static = sc.mode == arch::ScaleMode::Static;
    std::vector<std::vector<uint32_t>> q(static_cast<size_t>(count));
    scales.assign(static_cast<size_t>(count),
                  is_static ? sc.staticScale : 0.0f);
    // Per-presentation side channels, folded below in presentation
    // order so the merged counters and recorded maxima are
    // bit-identical for any thread count (DESIGN.md §3).
    std::vector<uint64_t> clipped(
        is_static ? static_cast<size_t>(count) : 0, 0);
    std::vector<float> maxima(
        sc.record ? static_cast<size_t>(count) : 0, 0.0f);

    tp.parallelFor(0, count, 16, [&](int64_t j, int) {
        const size_t s = static_cast<size_t>(j);
        std::vector<float> col(static_cast<size_t>(rows));
        const float *p = base + j * j_stride;
        for (int64_t r = 0; r < rows; ++r)
            col[static_cast<size_t>(r)] = p[r * r_stride];
        if (sc.record) {
            float mx = 0.0f;
            for (float v : col)
                mx = std::max(mx, v);
            maxima[s] = mx;
        }
        if (is_static) {
            q[s] = arch::quantizeActivationsStatic(
                col, bits, sc.staticScale, &clipped[s]);
        } else {
            q[s] = arch::quantizeActivations(col, bits, &scales[s]);
        }
    });

    if (stats) {
        stats->quantValues +=
            static_cast<uint64_t>(count) * static_cast<uint64_t>(rows);
        for (uint64_t c : clipped)
            stats->quantClipped += c;
    }
    // Per-image quantization counters (the per-request stats channel):
    // image i sees ppi presentations x rows values, and only its own
    // presentations' clip counts — exactly what a single-image run of
    // this stage would have counted. Integer counters, so the split
    // fold cannot perturb the flat batch fold above.
    if (per_image) {
        FORMS_ASSERT(ppi > 0 && count % ppi == 0,
                     "quantizePresentations: per-image stats need the "
                     "per-image presentation count");
        for (int64_t i = 0; i < count / ppi; ++i) {
            per_image[i].quantValues += static_cast<uint64_t>(ppi) *
                static_cast<uint64_t>(rows);
        }
        if (is_static)
            for (int64_t j = 0; j < count; ++j)
                per_image[j / ppi].quantClipped +=
                    clipped[static_cast<size_t>(j)];
    }
    if (sc.record)
        sc.record->insert(sc.record->end(), maxima.begin(), maxima.end());
    // EIC fold runs serially after the parallel quantize, presentation
    // by presentation, so the histogram is bit-identical for any
    // thread count (and only calibration runs pay for it).
    if (sc.eicStats)
        for (const auto &qp : q)
            sc.eicStats->recordVector(qp, sc.eicFragSize);
    return q;
}

namespace {

/**
 * Resolve one matrix node's quantization from the runtime config.
 * Static mode takes the calibration-table entry when one covers the
 * node, else `attached_scale` (the scale CalibrationTable::attachTo
 * carried onto the node's input edge; 0 when none); a node covered by
 * neither fatal()s here, at construction time, not mid-batch.
 */
StageScale
resolveStageScale(const RuntimeConfig &cfg, const std::string &name,
                  float attached_scale)
{
    StageScale sc;
    sc.mode = cfg.scaleMode;
    if (cfg.scaleMode == arch::ScaleMode::Static) {
        if (cfg.calibration &&
            cfg.calibration->inputBits() != cfg.mapping.inputBits) {
            fatal("runtime: calibration table was built for a %d-bit "
                  "input grid but the mapping uses %d bits — its "
                  "scales would mis-span the DAC range; recalibrate "
                  "at the deployment resolution",
                  cfg.calibration->inputBits(), cfg.mapping.inputBits);
        }
        const compile::CalibEntry *e =
            cfg.calibration ? cfg.calibration->find(name) : nullptr;
        if (e)
            sc.staticScale = e->scale;
        else if (attached_scale > 0.0f)
            sc.staticScale = attached_scale;
        else {
            fatal("runtime: ScaleMode::Static but stage '%s' has no "
                  "calibrated scale — run sim::Calibrator and pass "
                  "the table in RuntimeConfig::calibration (or attach "
                  "it to the graph with CalibrationTable::attachTo)",
                  name.c_str());
        }
    }
    if (cfg.recorder) {
        sc.record = &cfg.recorder->maxima[name];
        // Bit-level activity channel: fold this stage's fragment EICs
        // into a per-stage histogram on the mapping's input grid,
        // fragmenting consecutive im2col rows the way the engine
        // fragments its input presentations.
        sc.eicStats = &cfg.recorder->eic
                           .try_emplace(name, cfg.mapping.inputBits)
                           .first->second;
        sc.eicFragSize = cfg.mapping.fragSize;
    }
    return sc;
}

/**
 * Map and program one matrix node: one mapping and one engine, the
 * engine heap-pinned next to the mapping it borrows. Conductances are
 * a pure function of (state, config) — device variation draws from a
 * stream seeded only by the engine config, and the fault identity is
 * the node id — so every replica chip of a replicated stage would
 * have programmed exactly this engine.
 */
void
programNode(NodeExec &e, int id, admm::LayerState &st,
            const RuntimeConfig &cfg)
{
    // Dynamic span name, so only built when a session is live (the
    // FORMS_TRACE_SCOPE macro would pay the concatenation always).
    obs::TraceScope trace_scope(
        obs::traceEnabled() ? "program " + e.name : std::string());
    e.mapped = std::make_unique<arch::MappedLayer>(
        arch::mapLayer(st, cfg.mapping));
    arch::EngineConfig ecfg = cfg.engine;
    if (cfg.faults) {
        // Fault identity is the graph node id: stable across
        // runtimes, replicas and partitionings.
        ecfg.faults = cfg.faults;
        ecfg.faultKey = static_cast<uint64_t>(id);
        if (cfg.remapFaults)
            e.remap = arch::remapFaultyCrossbars(
                *e.mapped, *cfg.faults, ecfg.faultKey, e.name.c_str());
    }
    e.engine = std::make_unique<arch::CrossbarEngine>(*e.mapped, ecfg);
}

/**
 * Execute one micro-batch's quantized presentations on a matrix
 * node's engine, one replica slice at a time (NodeExec::replicaChips
 * states the slicing and bit-identity contract), appending one
 * PhaseSample per slice. `rows` is the quantized values per
 * presentation; `ppi` is presentations per image, used to expand
 * per-image stream ids into per-presentation keys.
 */
std::vector<std::vector<double>>
replicatedMvm(const NodeExec &e,
              const std::vector<std::vector<uint32_t>> &q, int64_t rows,
              int64_t ppi, const uint64_t *image_ids, ThreadPool &tp,
              arch::EngineStats &stats, arch::EngineStats *per_image,
              std::vector<PhaseSample> &phases)
{
    const size_t p = q.size();
    const size_t r_count = e.replicaChips.size();
    FORMS_ASSERT(e.engine && r_count >= 1, "matrix stage with no engine");

    // Presentation j's RNG key is image_ids[j/ppi]*ppi + j%ppi, so an
    // image's draws depend only on its own id — not on batch
    // position, batch composition, replica slice, or what ran before.
    const size_t u_ppi = static_cast<size_t>(ppi);
    std::vector<uint64_t> keys(p);
    for (size_t j = 0; j < p; ++j)
        keys[j] = image_ids[j / u_ppi] * static_cast<uint64_t>(ppi) +
            static_cast<uint64_t>(j % u_ppi);
    std::vector<arch::EngineStats> per(per_image ? p : 0);
    arch::EngineStats *per_out = per_image ? per.data() : nullptr;

    // Replica r takes the contiguous presentation slice
    // [floor(p*r/R), floor(p*(r+1)/R)). Slices run (and fold their
    // per-presentation stats into `stats`) in ascending replica order,
    // and the keys travel with the presentations, so this reproduces
    // the exact outputs and stat fold of one engine running [0, p).
    std::vector<std::vector<double>> outs;
    outs.reserve(p);
    for (size_t r = 0; r < r_count; ++r) {
        const size_t lo = p * r / r_count;
        const size_t hi = p * (r + 1) / r_count;
        const arch::EngineStats before = stats;
        auto part = e.engine->mvmKeyed(q, lo, hi, keys.data(), &stats,
                                       per_out, &tp);
        PhaseSample ps;
        ps.chip = e.replicaChips[r];
        ps.adcNs = stats.timeNs - before.timeNs;
        ps.quantValues = (hi - lo) * static_cast<uint64_t>(rows);
        ps.bitCycles = stats.bitCycles - before.bitCycles;
        ps.skippedCycles = stats.skippedCycles - before.skippedCycles;
        phases.push_back(ps);
        for (auto &v : part)
            outs.push_back(std::move(v));
    }

    // Per-image fold: image i's accumulator merges its own
    // presentations in within-image order from zero — the same merge
    // sequence a single-image batch would have produced.
    if (per_image)
        for (size_t j = 0; j < p; ++j)
            per_image[j / u_ppi].merge(per[j]);
    return outs;
}

/**
 * Run one matrix node — conv or dense — on a batch: lay its input out
 * as presentations, quantize (per e.scale), execute on the node's
 * engine replicas, and dequantize through the digital output stage
 *
 *     out[oc] = s[oc] * mvm[oc] + bias[oc]
 *
 * with s = e.chanScale (BN folded into the periphery,
 * compile::FoldMode::DigitalScale), or 1 when it is empty. A conv
 * lowers its NCHW input to im2col columns in e.im2colScratch (reused
 * across calls, so steady-state micro-batches do not allocate) and
 * presents one oh*ow plane per image; a dense node presents each
 * flattened image row as is — the one-pixel case.
 */
Tensor
matrixStage(const Tensor &act, NodeExec &e, const uint64_t *image_ids,
            ThreadPool &tp, int input_bits, arch::EngineStats &stats,
            arch::EngineStats *per_image, std::vector<PhaseSample> &phases)
{
    FORMS_ASSERT(e.chanScale.empty() ||
                     e.chanScale.size() == static_cast<size_t>(e.outC),
                 "matrix stage: digital scale extent mismatch");
    const int64_t n = act.dim(0);
    // Presentation j's row r sits at base[j*j_stride + r*r_stride];
    // image j/plane owns output pixel j%plane.
    const float *base = act.data();
    int64_t rows = 0, count = n, plane = 1, j_stride = 0, r_stride = 1;
    Shape out_shape{n, e.outC};
    if (e.op == compile::Op::Conv) {
        const int oh = convOutDim(static_cast<int>(act.dim(2)), e.k,
                                  e.stride, e.pad);
        const int ow = convOutDim(static_cast<int>(act.dim(3)), e.k,
                                  e.stride, e.pad);
        // Column j of the im2col matrix is patch (img, oy, ox) with
        // j = (img*oh + oy)*ow + ox.
        im2colInto(act, e.k, e.k, e.stride, e.pad, e.im2colScratch);
        base = e.im2colScratch.data();
        rows = e.im2colScratch.dim(0);
        count = e.im2colScratch.dim(1);
        plane = int64_t(oh) * ow;
        j_stride = 1;
        r_stride = count;
        out_shape = {n, e.outC, oh, ow};
    } else {
        FORMS_ASSERT(act.rank() == 2, "dense stage needs a flattened input");
        rows = act.dim(1);
        j_stride = rows;
    }

    std::vector<float> scales;
    auto q = quantizePresentations(tp, count, rows, input_bits, e.scale,
                                   scales, base, j_stride, r_stride,
                                   &stats, plane, per_image);
    auto raw = replicatedMvm(e, q, rows, plane, image_ids, tp, stats,
                             per_image, phases);

    Tensor out(out_shape);
    float *po = out.data();
    const int out_c = e.outC;
    tp.parallelFor(0, count, 16, [&](int64_t j, int) {
        const auto deq = arch::dequantizeOutputs(
            raw[static_cast<size_t>(j)], e.mapped->scale,
            scales[static_cast<size_t>(j)]);
        const int64_t img = j / plane, pix = j % plane;
        for (int oc = 0; oc < out_c; ++oc) {
            const size_t c = static_cast<size_t>(oc);
            const float s = e.chanScale.empty() ? 1.0f : e.chanScale[c];
            // Channels past the engine's output extent were pruned
            // away entirely (the mapper compacts them): all their
            // weights are zero, so they contribute 0.
            const float v = c < deq.size() ? deq[c] : 0.0f;
            po[(img * out_c + oc) * plane + pix] = s * v + e.bias[c];
        }
    });
    return out;
}

/**
 * Eval-mode batch normalization on an NCHW batch:
 * y[n,c,h,w] = x[n,c,h,w] * scale[c] + shift[c]. Parallelizes over
 * (image, channel) planes — disjoint writes, order-free per element —
 * so it is deterministic for any thread count.
 */
Tensor
batchNormStage(const Tensor &in, const std::vector<float> &scale,
               const std::vector<float> &shift, ThreadPool &tp)
{
    const int64_t n = in.dim(0);
    const int64_t c = in.dim(1);
    const int64_t plane = in.dim(2) * in.dim(3);
    Tensor out(in.shape());
    const float *pi = in.data();
    float *po = out.data();
    tp.parallelFor(0, n * c, 4, [&](int64_t j, int) {
        const float s = scale[static_cast<size_t>(j % c)];
        const float b = shift[static_cast<size_t>(j % c)];
        const float *src = pi + j * plane;
        float *dst = po + j * plane;
        for (int64_t i = 0; i < plane; ++i)
            dst[i] = src[i] * s + b;
    });
    return out;
}

} // namespace

std::vector<NodeExec>
buildNodeExecs(const compile::Graph &g, const compile::Schedule &sched,
               std::vector<admm::LayerState> &layers,
               const RuntimeConfig &cfg)
{
    FORMS_TRACE_SCOPE("sim::buildNodeExecs");
    const std::vector<int> topo = g.topoOrder();
    std::vector<NodeExec> execs;
    execs.reserve(topo.size());
    for (int id : topo) {
        const compile::Node &n = g.node(id);
        NodeExec e;
        e.op = n.op;
        e.nodeId = id;
        e.name = n.name;
        e.inputs = n.inputs;
        // Every chip of the node's stage hosts it: one chip for
        // ordinary stages, R consecutive chips for a replicated stage
        // (which holds exactly one matrix node).
        const int s = sched.stageOf(id);
        FORMS_ASSERT(s >= 0, "graph exec: node %d missing from the "
                             "schedule — was it built from this graph?",
                     id);
        for (int c = 0; c < sched.stageWidth(s); ++c)
            e.replicaChips.push_back(sched.stageFirstChip(s) + c);

        switch (n.op) {
        case compile::Op::Conv:
        case compile::Op::Dense: {
            const bool conv = n.op == compile::Op::Conv;
            const Tensor *weight =
                conv ? &n.conv->weight() : &n.dense->weight();
            auto st = std::find_if(
                layers.begin(), layers.end(),
                [&](const admm::LayerState &l) {
                    return l.param.value == weight;
                });
            if (st == layers.end()) {
                fatal("graph exec: no compression state for %s node "
                      "'%s'", conv ? "conv" : "dense", n.name.c_str());
            }
            programNode(e, id, *st, cfg);
            if (conv) {
                e.outC = n.conv->outChannels();
                e.k = n.conv->kernel();
                e.stride = n.conv->stride();
                e.pad = n.conv->pad();
            } else {
                e.outC = n.dense->outDim();
            }
            // A digital output stage (BN folded into the periphery)
            // replaces the plain layer bias.
            if (!n.outScale.empty()) {
                e.chanScale = n.outScale;
                e.bias = n.outBias;
            } else {
                const Tensor &b = conv ? n.conv->bias() : n.dense->bias();
                e.bias.assign(b.data(), b.data() + b.numel());
            }
            e.scale = resolveStageScale(cfg, n.name, n.inScale);
            break;
        }
        case compile::Op::BatchNorm: {
            // Left unfolded (e.g. BN not preceded by a private conv):
            // snapshot the eval-mode affine.
            const int c = n.bn->channels();
            e.bnScale.resize(static_cast<size_t>(c));
            e.bnShift.resize(static_cast<size_t>(c));
            for (int i = 0; i < c; ++i) {
                const float sigma = std::sqrt(
                    n.bn->runningVar().at(i) + n.bn->eps());
                const float s = n.bn->gamma().at(i) / sigma;
                e.bnScale[static_cast<size_t>(i)] = s;
                e.bnShift[static_cast<size_t>(i)] =
                    n.bn->beta().at(i) -
                    s * n.bn->runningMean().at(i);
            }
            break;
        }
        case compile::Op::MaxPool:
        case compile::Op::AvgPool:
            e.poolK = n.poolK;
            e.poolStride = n.poolStride;
            break;
        case compile::Op::Input:
        case compile::Op::Relu:
        case compile::Op::Flatten:
        case compile::Op::Add:
            break;
        }
        execs.push_back(std::move(e));
    }
    return execs;
}

Tensor
runGraph(const compile::Graph &g, std::vector<NodeExec> &execs,
         const Tensor &batch, const uint64_t *image_ids, ThreadPool &tp,
         int input_bits, std::vector<arch::EngineStats> &stats,
         std::vector<PhaseSample> &phases, arch::EngineStats *per_image,
         int64_t per_image_stride)
{
    FORMS_ASSERT(stats.size() == execs.size(),
                 "runGraph: stats accumulators must parallel execs");
    FORMS_ASSERT(image_ids, "runGraph: per-image stream ids are required");

    // Reference-counted value slots, indexed by node id. The input
    // node aliases the caller's batch; every other node owns its
    // output until the last consumer (or the graph output) is done.
    struct Slot
    {
        const Tensor *ref = nullptr;
        Tensor owned;
        int remaining = 0;
    };
    std::vector<Slot> slots(static_cast<size_t>(g.capacity()));
    for (const NodeExec &e : execs)
        for (int in : e.inputs)
            ++slots[static_cast<size_t>(in)].remaining;
    ++slots[static_cast<size_t>(g.output())].remaining;

    for (size_t idx = 0; idx < execs.size(); ++idx) {
        NodeExec &e = execs[idx];
        // Wall-clock span per node; the dynamic name is only built
        // when a trace session is live, and recording touches nothing
        // the computation reads (the observer invariant).
        obs::TraceScope node_scope(
            obs::traceEnabled() ? "node " + e.name : std::string());
        Slot &out = slots[static_cast<size_t>(e.nodeId)];
        auto in = [&](size_t i) -> const Tensor & {
            return *slots[static_cast<size_t>(e.inputs[i])].ref;
        };

        switch (e.op) {
        case compile::Op::Input:
            out.ref = &batch;
            break;
        case compile::Op::Conv:
        case compile::Op::Dense:
            out.owned = matrixStage(
                in(0), e, image_ids, tp, input_bits, stats[idx],
                per_image ? per_image +
                        static_cast<int64_t>(idx) * per_image_stride
                          : nullptr,
                phases);
            break;
        case compile::Op::BatchNorm:
            out.owned = batchNormStage(in(0), e.bnScale, e.bnShift, tp);
            break;
        case compile::Op::Relu:
            out.owned = relu(in(0));
            break;
        case compile::Op::MaxPool:
            out.owned = maxPool2d(in(0), e.poolK, e.poolStride, nullptr);
            break;
        case compile::Op::AvgPool:
            out.owned = avgPool2d(in(0), e.poolK, e.poolStride);
            break;
        case compile::Op::Flatten: {
            const Tensor &x = in(0);
            const int64_t n = x.dim(0);
            out.owned = x.reshaped({n, x.numel() / n});
            break;
        }
        case compile::Op::Add: {
            // Join node: fixed left-then-right accumulation order, so
            // the float sums are reproducible (DESIGN.md §4). Steal
            // the left operand's buffer when this is its last use
            // instead of deep-copying a full activation tensor.
            Slot &lhs = slots[static_cast<size_t>(e.inputs[0])];
            if (lhs.remaining == 1 && lhs.ref == &lhs.owned)
                out.owned = std::move(lhs.owned);
            else
                out.owned = in(0);
            out.owned.add(in(1));
            break;
        }
        }
        if (!out.ref)
            out.ref = &out.owned;

        // Release producer buffers whose consumers are all done.
        for (int src : e.inputs) {
            Slot &p = slots[static_cast<size_t>(src)];
            if (--p.remaining == 0 && p.ref == &p.owned) {
                p.owned = Tensor();
                p.ref = nullptr;
            }
        }
    }
    return *slots[static_cast<size_t>(g.output())].ref;
}

void
recordNodeRows(const std::vector<NodeExec> &execs,
               const arch::EngineStats *stats, int64_t stride,
               RuntimeReport &report)
{
    size_t row = 0;
    for (size_t idx = 0; idx < execs.size(); ++idx) {
        const NodeExec &e = execs[idx];
        if (!e.engine)
            continue;
        const arch::EngineStats &s =
            stats[static_cast<int64_t>(idx) * stride];
        if (row < report.layers.size())
            report.layers[row].stats.merge(s);
        else
            report.layers.push_back({e.name, s, e.mapped->numCrossbars()});
        report.presentations += s.presentations;
        ++row;
    }
}

} // namespace forms::sim
