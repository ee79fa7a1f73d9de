/**
 * @file
 * The two resnet_small workloads, both a closed loop with one caller
 * and 16 images per GraphRuntime/PipelineRuntime::forwardRequests call:
 *
 *  - offline_resnet: uniform-random images, 4-bit ADC, no variation or
 *    read noise, per-presentation scales on one GraphRuntime. ADC
 *    conversion, the row sweep and the stage kernels do the work.
 *  - pipeline_calibrated: cifar10-like non-negative images, static
 *    scales from a Calibrator run on a calibration split, a 1e-3
 *    column-kill fault map with spare remap, and a 4-chip EicTime
 *    PipelineRuntime with replication, tile overlap and micro-batch 1.
 *    Partition, calibration, faults, remap and the pipeline timing
 *    model all do real work; measurement uses held-out test images.
 *
 * The loop cycles over kBatches fixed batches with fixed request ids,
 * so every call has a reference: the first call of each batch (offline)
 * or a GraphRuntime over the same graph, faults and ids (pipeline).
 */

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>

#include "checks.hh"
#include "common/rng.hh"
#include "compile/calibration.hh"
#include "compile/passes.hh"
#include "compile/schedule.hh"
#include "nn/dataset.hh"
#include "nn/zoo.hh"
#include "reram/faults.hh"
#include "serve/backends.hh"
#include "serving.hh"
#include "sim/calibrator.hh"
#include "sim/graph_runtime.hh"
#include "sim/pipeline_runtime.hh"
#include "workloads.hh"

namespace perfbench {

using namespace forms;

namespace {

constexpr int kImagesPerCall = 16;
constexpr int kBatches = 2;
constexpr int kCalibImages = 8;     //!< pipeline calibration split
constexpr uint64_t kDatasetSeed = 91;
constexpr int kBurst = 8;           //!< served-burst probe requests
constexpr int kMinCalls = 3;

sim::RuntimeConfig
resnetConfig()
{
    sim::RuntimeConfig rcfg;
    rcfg.mapping.fragSize = 8;
    rcfg.mapping.inputBits = 8;
    rcfg.engine.adcBits = 4;
    rcfg.pool = &benchPool();
    return rcfg;
}

compile::ScheduleConfig
pipelineSchedule()
{
    compile::ScheduleConfig sc;
    sc.chips = 4;
    sc.workModel = compile::WorkModel::EicTime;
    sc.replicateThreshold = 0.9;
    sc.maxReplicas = 4;
    return sc;
}

reram::FaultConfig
faultConfig()
{
    reram::FaultConfig fc;
    fc.columnKillRate = 1e-3;
    fc.seed = 2024;
    return fc;
}

/** Per-layer setup timings (last setup of the run). */
struct SetupTimes
{
    double lowerMs = 0, foldMs = 0, projectMs = 0, calibrateMs = 0,
           partitionMs = 0, buildMs = 0;
};

/** One setup's objects; members borrow earlier ones. */
struct Stack
{
    std::unique_ptr<nn::Network> net;
    std::unique_ptr<compile::Graph> graph;
    std::vector<admm::LayerState> states;
    std::unique_ptr<reram::FaultMap> faults;
    sim::RuntimeConfig rcfg;
    int stages = 1;
    std::unique_ptr<sim::GraphRuntime> graphRt;        //!< offline
    std::unique_ptr<sim::PipelineRuntime> pipeRt;      //!< pipeline
};

/** lower -> fold -> compress, shared by both workloads. */
std::unique_ptr<Stack>
compileResnet(Spans &spans, SetupTimes &t)
{
    auto s = std::make_unique<Stack>();
    Rng rng(11);
    s->net = nn::buildResNetSmall(rng, 10, 8);
    {
        Timed tm(spans, "compile::lowerNetwork", "compile", &t.lowerMs);
        s->graph = std::make_unique<compile::Graph>(
            compile::lowerNetwork(*s->net));
        s->graph->inferShapes({3, 32, 32});
    }
    {
        Timed tm(spans, "compile::foldBatchNorm", "compile", &t.foldMs);
        compile::foldBatchNorm(*s->graph);
    }
    {
        Timed tm(spans, "sim::snapshotCompress", "admm", &t.projectMs);
        s->states = sim::snapshotCompress(*s->net, 8, 8);
    }
    s->rcfg = resnetConfig();
    return s;
}

std::unique_ptr<Stack>
setUpOffline(Spans &spans, SetupTimes &t)
{
    auto s = compileResnet(spans, t);
    Timed tm(spans, "sim::GraphRuntime::GraphRuntime", "sim", &t.buildMs);
    s->graphRt = std::make_unique<sim::GraphRuntime>(*s->graph, s->states,
                                                     s->rcfg);
    return s;
}

std::unique_ptr<Stack>
setUpPipeline(Spans &spans, SetupTimes &t, const Tensor &calib)
{
    auto s = compileResnet(spans, t);
    s->faults = std::make_unique<reram::FaultMap>(faultConfig());
    s->rcfg.faults = s->faults.get();
    s->rcfg.remapFaults = true;
    s->rcfg.mapping.spareXbars = 32;
    {
        Timed tm(spans, "sim::Calibrator", "sim", &t.calibrateMs);
        sim::Calibrator cal(*s->graph, s->states, s->rcfg);
        cal.observe(calib);
        cal.table().attachTo(*s->graph);
    }
    s->rcfg.scaleMode = arch::ScaleMode::Static;
    std::optional<compile::Schedule> sched;
    {
        Timed tm(spans, "compile::Schedule::partition", "compile",
                 &t.partitionMs);
        sched.emplace(
            compile::Schedule::partition(*s->graph, pipelineSchedule()));
    }
    s->stages = sched->stages();
    sim::PipelineRuntimeConfig pcfg;
    pcfg.runtime = s->rcfg;
    pcfg.microBatch = 1;
    pcfg.tile.overlap = true;
    Timed tm(spans, "sim::PipelineRuntime::PipelineRuntime", "sim", &t.buildMs);
    s->pipeRt = std::make_unique<sim::PipelineRuntime>(
        *s->graph, std::move(*sched), s->states, pcfg);
    return s;
}

/** One call's outputs. */
struct CallOut
{
    Tensor logits;
    std::vector<sim::RuntimeReport> perRequest;
    sim::PipelineReport pipe;   //!< pipeline only
};

/** Expected outputs of one batch. */
struct Reference
{
    Tensor logits;
    std::vector<sim::RuntimeReport> perRequest;
};

CallOut
call(Stack &s, const Tensor &batch, const std::vector<uint64_t> &ids)
{
    CallOut out;
    if (s.pipeRt)
        out.logits = s.pipeRt->forwardRequests(batch, ids.data(),
                                               &out.perRequest, &out.pipe);
    else
        out.logits = s.graphRt->forwardRequests(batch, ids.data(),
                                                &out.perRequest);
    return out;
}

void
check(const CallOut &got, const Reference &ref, const char *what, Result &res)
{
    res.attempted += kImagesPerCall;
    if (!sameBits(got.logits, ref.logits))
        res.fail(std::string(what) + ": logits differ bitwise");
    else if (!sameStats(got.perRequest, ref.perRequest))
        res.fail(std::string(what) + ": per-request EngineStats differ");
}

/** Wall time of each call and the loop's CPU/steal. */
struct LoopStats
{
    std::vector<double> callMs;
    Contention contention;
    int64_t images = 0;
};

LoopStats
closedLoop(Stack &s, const std::vector<Tensor> &batches,
           const std::vector<std::vector<uint64_t>> &ids,
           const std::vector<Reference> &refs, double seconds, Spans &spans,
           Result &res)
{
    LoopStats ls;
    Timed root(spans, "closed_loop", "bench");
    ContentionMeter meter;
    const auto t0 = Clock::now();
    for (size_t c = 0;
         static_cast<int>(c) < kMinCalls || secondsSince(t0) < seconds; ++c) {
        const size_t b = c % batches.size();
        double ms = 0.0;
        CallOut out;
        {
            Timed tm(spans, "forwardRequests", "sim", &ms);
            out = call(s, batches[b], ids[b]);
        }
        ls.callMs.push_back(ms);
        ls.images += kImagesPerCall;
        check(out, refs[b], "timed call", res);
    }
    ls.contention = meter.stop();
    return ls;
}

/** Both resnet workloads; `pipeline` selects the second. */
void
runResnet(bool pipeline, const Options &opt, Spans &spans, Result &res)
{
    // ---- inputs from the seed ---------------------------------------
    std::vector<Tensor> batches;
    Tensor calib;
    if (pipeline) {
        // One fixed dataset, so calibration, static scales and the
        // partition do not move with the seed; the seed picks which
        // held-out test images the run measures on.
        nn::DatasetConfig dcfg = nn::DatasetConfig::cifar10Like(kDatasetSeed);
        dcfg.nonneg = true;
        dcfg.trainPerClass = 1;
        dcfg.testPerClass = 10;
        nn::SyntheticImageDataset data(dcfg);
        const Tensor &train = data.train().images;
        const Tensor &test = data.test().images;
        const int64_t img = 3 * 32 * 32;
        calib = Tensor({kCalibImages, 3, 32, 32});
        std::memcpy(calib.data(), train.data(),
                    static_cast<size_t>(kCalibImages * img) * sizeof(float));
        std::vector<int> order(static_cast<size_t>(test.dim(0)));
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = static_cast<int>(i);
        Rng rng(opt.seed);
        nn::shuffle(order, rng);
        for (int b = 0; b < kBatches; ++b) {
            Tensor t({kImagesPerCall, 3, 32, 32});
            for (int i = 0; i < kImagesPerCall; ++i)
                std::memcpy(t.data() + i * img,
                            test.data() +
                                order[static_cast<size_t>(b * kImagesPerCall + i)] *
                                    img,
                            static_cast<size_t>(img) * sizeof(float));
            batches.push_back(std::move(t));
        }
    } else {
        Rng rng(opt.seed);
        for (int b = 0; b < kBatches; ++b) {
            Tensor t({kImagesPerCall, 3, 32, 32});
            t.fillUniform(rng, 0.0f, 1.0f);
            batches.push_back(std::move(t));
        }
    }
    std::vector<std::vector<uint64_t>> ids(kBatches);
    for (int b = 0; b < kBatches; ++b)
        for (int i = 0; i < kImagesPerCall; ++i)
            ids[static_cast<size_t>(b)].push_back(
                (opt.seed << 32) |
                static_cast<uint64_t>(b * kImagesPerCall + i));

    // ---- setup (repeated untraced; setup_s is the median) -----------
    SetupTimes times;
    std::vector<double> setup_s;
    std::unique_ptr<Stack> stack;
    {
        TraceWindow window(spans);
        Timed root(spans, "setup", "bench");
        while (moreSetups(opt, setup_s)) {
            stack.reset();
            times = SetupTimes();
            const auto t0 = Clock::now();
            stack = pipeline ? setUpPipeline(spans, times, calib)
                             : setUpOffline(spans, times);
            setup_s.push_back(secondsSince(t0));
        }
    }
    Stack &s = *stack;

    // ---- references and deterministic model statistics --------------
    std::vector<Reference> refs(kBatches);
    ArchCounts counts;
    double makespan_ns = 0.0, bubble = 0.0, pipe_energy_pj = 0.0;
    int64_t faulty = 0, remapped = 0;
    {
        std::unique_ptr<sim::GraphRuntime> gref;
        if (pipeline)
            gref = std::make_unique<sim::GraphRuntime>(*s.graph, s.states,
                                                       s.rcfg);
        for (size_t b = 0; b < refs.size(); ++b) {
            CallOut first = call(s, batches[b], ids[b]);
            if (gref) {
                refs[b].logits = gref->forwardRequests(
                    batches[b], ids[b].data(), &refs[b].perRequest);
                check(first, refs[b], "pipeline vs GraphRuntime", res);
            } else {
                refs[b].logits = first.logits;
                refs[b].perRequest = first.perRequest;
            }
            for (const sim::RuntimeReport &r : first.perRequest)
                counts.add(r);
            if (pipeline) {
                makespan_ns += first.pipe.makespanNs;
                bubble += first.pipe.bubbleFraction;
                pipe_energy_pj += first.pipe.nodes.modelEnergyPj() +
                    first.pipe.transferPj;
                faulty = first.pipe.faultyCrossbars;
                remapped = first.pipe.remappedCrossbars;
            }
        }
        engineProbe(heaviestLayer(s.states), s.rcfg.mapping, s.rcfg.engine,
                    opt.seed, false, 0.0, spans, res);
    }
    if (!pipeline)
        makespan_ns = counts.timeNs;   // one chip: layers run in sequence
    const double images = static_cast<double>(counts.images);
    res.set("model.fps", images / (makespan_ns * 1e-9), "1/s");
    res.set("model.energy_uj_per_image",
            (pipeline ? pipe_energy_pj : counts.energyPj) * 1e-6 / images,
            "uJ");

    auto fps = [](const LoopStats &ls) {
        std::vector<double> v;
        for (double ms : ls.callMs)
            v.push_back(kImagesPerCall * 1e3 / ms);
        return median(v);
    };

    if (!opt.trace) {
        const LoopStats ls =
            closedLoop(s, batches, ids, refs, opt.seconds, spans, res);
        res.set("setup_s", median(setup_s), "s");
        res.set("host_fps", fps(ls), "1/s");
        res.set("cpu_ms_per_image",
                ls.contention.cpuS * 1e3 / static_cast<double>(ls.images),
                "ms");
        res.set("serve.p50_ms", quantile(ls.callMs, 0.5), "ms");
        res.set("serve.p99_ms", quantile(ls.callMs, 0.99), "ms");
        res.set("serve.capacity_rps",
                static_cast<double>(ls.images) / ls.contention.wallS, "1/s");
        res.info["timed_calls"] = static_cast<double>(ls.callMs.size());
        res.info["timed.wall_s"] = ls.contention.wallS;
        res.info["timed.cpu_s"] = ls.contention.cpuS;
        res.info["timed.steal_s"] = ls.contention.stealS;
        return;
    }

    // ---- traced run: untraced half, traced half, probes --------------
    const LoopStats plain =
        closedLoop(s, batches, ids, refs, opt.seconds / 2, spans, res);
    LoopStats traced;
    PhaseStats burst;
    double calibrate_ms = times.calibrateMs, partition_ms = times.partitionMs;
    int stages = s.stages;
    {
        TraceWindow window(spans);
        traced = closedLoop(s, batches, ids, refs, opt.seconds / 2, spans, res);
        Timed root(spans, "probes", "bench");
        // The serve layer over this workload's runtime: one burst of
        // requests, checked against the same references.
        std::unique_ptr<serve::Backend> inner;
        if (s.pipeRt)
            inner = std::make_unique<serve::PipelineBackend>(*s.pipeRt);
        else
            inner = std::make_unique<serve::GraphBackend>(*s.graphRt);
        TimedBackend backend(*inner, spans);
        std::vector<Request> corpus(kBurst);
        for (int i = 0; i < kBurst; ++i) {
            Request &rq = corpus[static_cast<size_t>(i)];
            const int64_t img = 3 * 32 * 32;
            rq.image = Tensor({3, 32, 32});
            std::memcpy(rq.image.data(), batches[0].data() + i * img,
                        static_cast<size_t>(img) * sizeof(float));
            rq.id = ids[0][static_cast<size_t>(i)];
            const int64_t classes = refs[0].logits.numel() / kImagesPerCall;
            rq.logits = Tensor({classes});
            std::memcpy(rq.logits.data(), refs[0].logits.data() + i * classes,
                        static_cast<size_t>(classes) * sizeof(float));
            rq.report = refs[0].perRequest[static_cast<size_t>(i)];
        }
        burst = runPhase(backend, corpus, 0, kBurst, 0.0, 0, spans);
        res.attempted += burst.sent;
        res.failed += burst.shed + burst.lost;
        for (int i = 0; i < burst.mismatched; ++i)
            res.fail("served burst: response differs from forwardRequests");
        if (!pipeline) {
            // Layers offline does not run in setup, on its own graph.
            Tensor two({2, 3, 32, 32});
            std::memcpy(two.data(), batches[0].data(),
                        static_cast<size_t>(two.numel()) * sizeof(float));
            {
                Timed tm(spans, "sim::Calibrator", "sim", &calibrate_ms);
                sim::Calibrator cal(*s.graph, s.states, s.rcfg);
                cal.observe(two);
                (void)cal.table();
            }
            Timed tm(spans, "compile::Schedule::partition", "compile",
                     &partition_ms);
            stages = compile::Schedule::partition(*s.graph, pipelineSchedule())
                         .stages();
        }
        engineProbe(heaviestLayer(s.states), s.rcfg.mapping, s.rcfg.engine,
                    opt.seed, true, 0.5, spans, res);
    }
    reportServeLayer(burst, res);
    res.set("compile.lower_ms", times.lowerMs, "ms");
    res.set("compile.fold_ms", times.foldMs, "ms");
    res.set("compile.partition_ms", partition_ms, "ms");
    res.set("compile.stages", stages, "count");
    res.set("admm.project_ms", times.projectMs, "ms");
    res.set("sim.build_ms", times.buildMs, "ms");
    res.set("sim.calibrate_ms", calibrate_ms, "ms");
    res.set("sim.call_ms.p50", quantile(traced.callMs, 0.5), "ms");
    res.set("sim.call_ms.p90", quantile(traced.callMs, 0.9), "ms");
    const double adc_per_call =
        static_cast<double>(counts.adcSamples) / kBatches;
    res.set("sim.host_ns_per_adc_sample",
            quantile(traced.callMs, 0.5) * 1e6 / adc_per_call, "ns");
    res.set("sim.bubble_frac", pipeline ? bubble / kBatches : 0.0, "frac");
    res.set("sim.makespan_us", makespan_ns * 1e-3 / kBatches, "us");
    res.set("arch.faulty_crossbars", static_cast<double>(faulty), "count");
    res.set("arch.remapped_crossbars", static_cast<double>(remapped), "count");
    counts.report(res);
    res.set("obs.trace_overhead_frac", fps(plain) / fps(traced) - 1.0, "frac");
}

} // namespace

void
runOfflineResnet(const Options &opt, Spans &spans, Result &res)
{
    runResnet(false, opt, spans, res);
}

void
runPipelineCalibrated(const Options &opt, Spans &spans, Result &res)
{
    runResnet(true, opt, spans, res);
}

} // namespace perfbench
