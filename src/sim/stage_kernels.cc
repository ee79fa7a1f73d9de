#include "sim/stage_kernels.hh"

#include <algorithm>

#include "compile/calibration.hh"
#include "sim/runtime.hh"
#include "tensor/ops.hh"

namespace forms::sim {

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

std::vector<float>
tensorToVector(const Tensor &t)
{
    return std::vector<float>(t.data(), t.data() + t.numel());
}

namespace {

/**
 * Dequantized value of output channel `oc` of one presentation.
 * Channels past the engine's output extent were pruned away entirely
 * (the mapper compacts them): all their weights are zero, so they
 * legitimately contribute 0 here (bias is added by the caller).
 */
float
channelValue(const std::vector<float> &deq, int oc)
{
    return static_cast<size_t>(oc) < deq.size()
        ? deq[static_cast<size_t>(oc)] : 0.0f;
}

/**
 * Execute one micro-batch's presentations on a stage's engine, one
 * replica slice at a time (see StageEngines in the header for the
 * slicing and bit-identity contract). `rows` is the quantized values
 * per presentation, reported through onPhase for the timing model;
 * `ppi` is presentations per image, used to expand per-image stream
 * ids into per-presentation keys.
 */
std::vector<std::vector<double>>
replicatedMvm(const StageEngines &eng,
              const std::vector<std::vector<uint32_t>> &q, int64_t rows,
              int64_t ppi, arch::EngineStats *stats, ThreadPool &tp)
{
    const size_t p = q.size();
    const size_t r_count = static_cast<size_t>(eng.replicas);
    FORMS_ASSERT(eng.engine && r_count >= 1, "matrix stage with no engine");
    FORMS_ASSERT(eng.imageIds, "matrix stage without per-image stream ids");
    // The per-phase sink needs model-time deltas even when the caller
    // passes no accumulator.
    arch::EngineStats scratch;
    arch::EngineStats *acc =
        stats ? stats : (eng.onPhase ? &scratch : nullptr);

    // Presentation j's RNG key is imageIds[j/ppi]*ppi + j%ppi, so an
    // image's draws depend only on its own id — not on batch
    // position, batch composition, replica slice, or what ran before.
    const size_t u_ppi = static_cast<size_t>(ppi);
    std::vector<uint64_t> keys(p);
    for (size_t j = 0; j < p; ++j)
        keys[j] = eng.imageIds[j / u_ppi] * static_cast<uint64_t>(ppi) +
            static_cast<uint64_t>(j % u_ppi);
    std::vector<arch::EngineStats> per(eng.perImage ? p : 0);
    arch::EngineStats *per_out = eng.perImage ? per.data() : nullptr;

    // Replica r takes the contiguous presentation slice
    // [floor(p*r/R), floor(p*(r+1)/R)). Slices run (and fold their
    // per-presentation stats into `acc`) in ascending replica order,
    // and the keys travel with the presentations, so this reproduces
    // the exact outputs and stat fold of one engine running [0, p).
    std::vector<std::vector<double>> outs;
    outs.reserve(p);
    for (size_t r = 0; r < r_count; ++r) {
        const size_t lo = p * r / r_count;
        const size_t hi = p * (r + 1) / r_count;
        const arch::EngineStats before = acc ? *acc : arch::EngineStats{};
        auto part = eng.engine->mvmKeyed(q, lo, hi, keys.data(), acc,
                                         per_out, &tp);
        if (eng.onPhase) {
            PhaseSample ps;
            ps.adcNs = acc->timeNs - before.timeNs;
            ps.quantValues = (hi - lo) * static_cast<uint64_t>(rows);
            ps.bitCycles = acc->bitCycles - before.bitCycles;
            ps.skippedCycles = acc->skippedCycles - before.skippedCycles;
            eng.onPhase(static_cast<int>(r), ps);
        }
        for (auto &v : part)
            outs.push_back(std::move(v));
    }

    // Per-image fold: image i's accumulator merges its own
    // presentations in within-image order from zero — the same merge
    // sequence a single-image batch would have produced.
    if (eng.perImage)
        for (size_t j = 0; j < p; ++j)
            eng.perImage[j / u_ppi].merge(per[j]);
    return outs;
}

} // namespace

Tensor
convStage(const Tensor &act, const StageEngines &engines,
          const arch::MappedLayer &mapped,
          const std::vector<float> &bias,
          const std::vector<float> &chan_scale, int out_c, int k,
          int stride, int pad, int input_bits, const StageScale &sc,
          ThreadPool &tp, arch::EngineStats *stats,
          Tensor *im2col_scratch)
{
    FORMS_ASSERT(chan_scale.empty() ||
                     chan_scale.size() == static_cast<size_t>(out_c),
                 "conv stage: digital scale extent mismatch");
    const int64_t n = act.dim(0);
    const int h = static_cast<int>(act.dim(2));
    const int w = static_cast<int>(act.dim(3));
    const int oh = convOutDim(h, k, stride, pad);
    const int ow = convOutDim(w, k, stride, pad);

    // Lower to presentations: column j of the im2col matrix is patch
    // (img, oy, ox) with j = (img*oh + oy)*ow + ox. The caller's
    // scratch (when given) absorbs the per-micro-batch allocation.
    Tensor local_cols;
    Tensor &cols = im2col_scratch ? *im2col_scratch : local_cols;
    im2colInto(act, k, k, stride, pad, cols);
    const int64_t rows = cols.dim(0);
    const int64_t m = cols.dim(1);
    const float *pc = cols.data();

    // One image contributes one im2col plane of oh*ow contiguous
    // presentations — the per-image presentation count the
    // request-keyed stream path slices by.
    const int64_t plane = int64_t(oh) * ow;
    std::vector<float> scales;
    auto q = quantizePresentations(tp, m, rows, input_bits, sc, scales,
                                   pc, /*j_stride=*/1, /*r_stride=*/m,
                                   stats, plane, engines.perImage);

    auto raw = replicatedMvm(engines, q, rows, plane, stats, tp);

    Tensor out({n, out_c, oh, ow});
    float *po = out.data();
    tp.parallelFor(0, m, 16, [&](int64_t j, int) {
        const auto deq = arch::dequantizeOutputs(
            raw[static_cast<size_t>(j)], mapped.scale,
            scales[static_cast<size_t>(j)]);
        const int64_t img = j / plane, pix = j % plane;
        for (int oc = 0; oc < out_c; ++oc) {
            const float s = chan_scale.empty()
                ? 1.0f : chan_scale[static_cast<size_t>(oc)];
            po[(img * out_c + oc) * plane + pix] =
                s * channelValue(deq, oc) +
                bias[static_cast<size_t>(oc)];
        }
    });
    return out;
}

Tensor
denseStage(const Tensor &act, const StageEngines &engines,
           const arch::MappedLayer &mapped,
           const std::vector<float> &bias, int out_dim, int input_bits,
           const StageScale &sc, ThreadPool &tp,
           arch::EngineStats *stats)
{
    FORMS_ASSERT(act.rank() == 2, "dense stage needs a flattened input");
    const int64_t n = act.dim(0);
    const int64_t feats = act.dim(1);
    const float *pi = act.data();

    std::vector<float> scales;
    auto q = quantizePresentations(tp, n, feats, input_bits, sc, scales,
                                   pi, /*j_stride=*/feats,
                                   /*r_stride=*/1, stats, /*ppi=*/1,
                                   engines.perImage);

    auto raw = replicatedMvm(engines, q, feats, /*ppi=*/1, stats, tp);

    Tensor out({n, out_dim});
    float *po = out.data();
    tp.parallelFor(0, n, 16, [&](int64_t j, int) {
        const auto deq = arch::dequantizeOutputs(
            raw[static_cast<size_t>(j)], mapped.scale,
            scales[static_cast<size_t>(j)]);
        for (int oc = 0; oc < out_dim; ++oc) {
            po[j * out_dim + oc] =
                channelValue(deq, oc) + bias[static_cast<size_t>(oc)];
        }
    });
    return out;
}

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

void
recordLayer(RuntimeReport &report, size_t stage_idx,
            const std::string &name, const arch::EngineStats &stats,
            int64_t crossbars, uint64_t presentations)
{
    if (stage_idx < report.layers.size()) {
        report.layers[stage_idx].stats.merge(stats);
    } else {
        report.layers.push_back({name, stats, crossbars});
    }
    report.presentations += presentations;
}

admm::LayerState *
findLayerState(std::vector<admm::LayerState> &layers, const Tensor *weight)
{
    for (auto &st : layers)
        if (st.param.value == weight)
            return &st;
    return nullptr;
}

double
logitsAccuracy(const Tensor &logits, const std::vector<int> &labels)
{
    FORMS_ASSERT(logits.dim(0) == static_cast<int64_t>(labels.size()),
                 "accuracy: label count mismatch");
    const int64_t n = logits.dim(0), k = logits.dim(1);
    int64_t hits = 0;
    for (int64_t i = 0; i < n; ++i) {
        int64_t best = 0;
        for (int64_t j = 1; j < k; ++j)
            if (logits.at(i, j) > logits.at(i, best))
                best = j;
        hits += best == labels[static_cast<size_t>(i)];
    }
    return n > 0 ? static_cast<double>(hits) / static_cast<double>(n)
                 : 0.0;
}

} // namespace forms::sim
