/**
 * @file
 * serve_noisy: bench_serving's 12x12 conv net under the full noise
 * model (3-bit ADC, device variation 0.1, read noise 0.02), served
 * through serve::Server over a GraphBackend at open-loop Poisson
 * arrivals from one generator thread.
 *
 * Per-request work is tiny, so queueing and per-call overhead set the
 * latency, and the per-column read-noise draw dominates the engine
 * loop. Rates are absolute, never fractions of a capacity measured in
 * the same run, so two commits are offered the same load.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "checks.hh"
#include "common/rng.hh"
#include "compile/passes.hh"
#include "compile/schedule.hh"
#include "nn/layers.hh"
#include "nn/network.hh"
#include "serve/backends.hh"
#include "serving.hh"
#include "sim/calibrator.hh"
#include "sim/graph_runtime.hh"
#include "workloads.hh"

namespace perfbench {

using namespace forms;

namespace {

constexpr int kHw = 12;
constexpr size_t kCorpus = 256;          //!< distinct (image, id) requests
constexpr double kNominalRps = 100.0;    //!< latency is reported here
constexpr double kClosedShare = 0.1;     //!< of --seconds: closed loop
constexpr double kNominalShare = 0.6;    //!< nominal load; the rest: ladder
constexpr int kImagesPerCall = 16;       //!< closed-loop call size
constexpr double kP99LimitMs = 100.0;    //!< capacity's latency limit
constexpr int kWindows = 5;              //!< nominal-load windows
constexpr int kWarmup = 32;              //!< untimed requests first
/**
 * Arrival times are a fixed Poisson trace per phase, the same for
 * every seed; the seed picks the images and request ids. At ~2,000
 * requests a run, p99 otherwise moves ~10% with the arrival draw alone.
 */
constexpr uint64_t kArrivalSeed = 0x5e7e;
/**
 * Fixed absolute ladder for serve.capacity_rps, ~5-10% apart and
 * reaching past 3x the capacity measured when it was written
 * (~385 req/s on 4 threads).
 */
const double kLadder[] = {100, 120, 140, 160, 180, 200, 220, 240, 260, 280,
                          300, 320, 340, 360, 380, 400, 425, 450, 475, 500,
                          530, 560, 600, 640, 680, 720, 770, 820, 880, 940,
                          1000, 1070, 1150, 1250};
constexpr int kLadderProbes = 8;   //!< trials the ladder budget is split into

sim::RuntimeConfig
serveConfig()
{
    sim::RuntimeConfig rcfg;
    rcfg.mapping.fragSize = 8;
    rcfg.mapping.inputBits = 8;
    rcfg.engine.adcBits = 3;
    rcfg.engine.cell.variationSigma = 0.1;
    rcfg.engine.readNoiseSigma = 0.02;
    rcfg.pool = &benchPool();
    return rcfg;
}

/** Everything one setup builds; members borrow earlier ones. */
struct Stack
{
    std::unique_ptr<nn::Network> net;
    std::unique_ptr<compile::Graph> graph;
    std::vector<admm::LayerState> states;
    std::unique_ptr<sim::GraphRuntime> rt;
    std::unique_ptr<serve::GraphBackend> backend;
    std::unique_ptr<TimedBackend> timed;
};

std::unique_ptr<nn::Network>
buildNet()
{
    Rng rng(21);
    auto net = std::make_unique<nn::Network>();
    net->emplace<nn::Conv2D>("conv1", 3, 8, 3, 1, 1, rng);
    net->emplace<nn::ReLU>("relu1");
    net->emplace<nn::MaxPool2D>("pool", 2, 2);
    net->emplace<nn::Flatten>("flat");
    net->emplace<nn::Dense>("fc", 8 * (kHw / 2) * (kHw / 2), 10, rng);
    return net;
}

struct SetupTimes
{
    double lowerMs = 0, foldMs = 0, projectMs = 0, buildMs = 0;
};

std::unique_ptr<Stack>
setUp(Spans &spans, SetupTimes &t)
{
    auto stack = std::make_unique<Stack>();
    Stack &s = *stack;
    s.net = buildNet();
    {
        Timed tm(spans, "compile::lowerNetwork", "compile", &t.lowerMs);
        s.graph = std::make_unique<compile::Graph>(
            compile::lowerNetwork(*s.net));
        s.graph->inferShapes({3, kHw, kHw});
    }
    {
        Timed tm(spans, "compile::foldBatchNorm", "compile", &t.foldMs);
        compile::foldBatchNorm(*s.graph);
    }
    {
        Timed tm(spans, "sim::snapshotCompress", "admm", &t.projectMs);
        s.states = sim::snapshotCompress(*s.net, 8, 8);
    }
    {
        Timed tm(spans, "sim::GraphRuntime::GraphRuntime", "sim", &t.buildMs);
        s.rt = std::make_unique<sim::GraphRuntime>(*s.graph, s.states,
                                                   serveConfig());
    }
    s.backend = std::make_unique<serve::GraphBackend>(*s.rt);
    s.timed = std::make_unique<TimedBackend>(*s.backend, spans);
    return stack;
}

/** Ladder rung verdict: the load was sustained within the limits. */
bool
sustained(const PhaseStats &ph)
{
    return ph.shed == 0 && ph.lost == 0 && ph.ok == ph.sent &&
        quantile(ph.latencyMs, 0.99) <= kP99LimitMs &&
        ph.lastQuarterMedianMs <= 2.0 * ph.firstQuarterMedianMs + 1.0;
}

void
account(const PhaseStats &ph, bool count_shed, Result &res)
{
    res.attempted += ph.sent;
    if (count_shed)
        res.failed += ph.shed + ph.lost;
    for (int i = 0; i < ph.mismatched; ++i)
        res.fail("serve: response differs bitwise from its single-request "
                 "reference");
}

} // namespace

void
runServeNoisy(const Options &opt, Spans &spans, Result &res)
{
    // ---- setup (repeated untraced; setup_s is the median) ----------
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
            stack = setUp(spans, times);
            setup_s.push_back(secondsSince(t0));
        }
    }

    // ---- references: a separately built runtime, one request each ----
    Rng irng(opt.seed);
    std::vector<Request> corpus(kCorpus);
    ArchCounts counts;
    {
        auto net = buildNet();
        auto graph = compile::lowerNetwork(*net);
        graph.inferShapes({3, kHw, kHw});
        compile::foldBatchNorm(graph);
        auto states = sim::snapshotCompress(*net, 8, 8);
        sim::GraphRuntime ref(graph, states, serveConfig());
        for (size_t i = 0; i < kCorpus; ++i) {
            Request &rq = corpus[i];
            rq.image = Tensor({3, kHw, kHw});
            rq.image.fillUniform(irng, 0.0f, 1.0f);
            rq.id = (opt.seed << 32) | i;
            Tensor one({1, 3, kHw, kHw});
            std::copy(rq.image.data(), rq.image.data() + rq.image.numel(),
                      one.data());
            std::vector<sim::RuntimeReport> per;
            Tensor logits = ref.forwardRequests(one, &rq.id, &per);
            rq.logits = Tensor({logits.numel()});
            std::copy(logits.data(), logits.data() + logits.numel(),
                      rq.logits.data());
            rq.report = per.at(0);
            counts.add(rq.report);
        }
        engineProbe(heaviestLayer(states), serveConfig().mapping,
                    serveConfig().engine, opt.seed, false, 0.0, spans, res);
    }

    const int nominal_n = std::max(
        1, static_cast<int>(std::lround(kNominalRps * kNominalShare *
                                        opt.seconds)));
    // Warm-up: the first batches through a fresh runtime and server pay
    // one-time allocations that no later request sees.
    account(runPhase(*stack->timed, corpus, 0, kWarmup, 0.0, 0, spans), true,
            res);

    if (!opt.trace) {
        // host_fps as on the other workloads: a closed loop of 16-request
        // forwardRequests calls on the served runtime, each row checked
        // against its single-request reference (batch invariance). Busy
        // cores make it steady where open-loop timings are not.
        std::vector<double> call_fps;
        const auto t0 = Clock::now();
        for (size_t c = 0; call_fps.size() < 3 ||
                           secondsSince(t0) < kClosedShare * opt.seconds;
             ++c) {
            const size_t first = (c * kImagesPerCall) % kCorpus;
            Tensor batch({kImagesPerCall, 3, kHw, kHw});
            std::vector<uint64_t> ids;
            const int64_t img = corpus[0].image.numel();
            for (int i = 0; i < kImagesPerCall; ++i) {
                const Request &rq = corpus[first + static_cast<size_t>(i)];
                std::copy(rq.image.data(), rq.image.data() + img,
                          batch.data() + i * img);
                ids.push_back(rq.id);
            }
            std::vector<sim::RuntimeReport> per;
            double ms = 0.0;
            Tensor logits;
            {
                Timed tm(spans, "forwardRequests", "sim", &ms);
                logits = stack->rt->forwardRequests(batch, ids.data(), &per);
            }
            call_fps.push_back(kImagesPerCall * 1e3 / ms);
            for (int i = 0; i < kImagesPerCall; ++i) {
                const Request &rq = corpus[first + static_cast<size_t>(i)];
                ++res.attempted;
                if (!sameRow(logits, i, rq.logits) ||
                    !sameStats(per.at(static_cast<size_t>(i)), rq.report))
                    res.fail("serve: batched forwardRequests row differs "
                             "from its single-request reference");
            }
        }

        // Nominal load in kWindows back-to-back windows; latencies are
        // medians over the windows, so a burst in one does not set them.
        std::vector<double> p50, p99;
        double cpu_s = 0.0, wall_s = 0.0, steal_s = 0.0;
        int served = 0;
        const int per = std::max(1, nominal_n / kWindows);
        for (int w = 0; w < kWindows; ++w) {
            const PhaseStats ph = runPhase(
                *stack->timed, corpus, static_cast<size_t>(w * per), per,
                kNominalRps, kArrivalSeed + static_cast<uint64_t>(w), spans);
            account(ph, true, res);
            p50.push_back(quantile(ph.latencyMs, 0.5));
            p99.push_back(quantile(ph.latencyMs, 0.99));
            cpu_s += ph.contention.cpuS;
            wall_s += ph.contention.wallS;
            steal_s += ph.contention.stealS;
            served += ph.ok;
        }

        // Capacity: binary search over the fixed ladder.
        const int rungs = static_cast<int>(std::size(kLadder));
        const double probe_s =
            (1.0 - kClosedShare - kNominalShare) * opt.seconds / kLadderProbes;
        int lo = -1, hi = rungs, probes = 0;
        while (hi - lo > 1) {
            const int mid = (lo + hi) / 2;
            const double rate = kLadder[mid];
            const int n = std::max(20, static_cast<int>(rate * probe_s));
            // A rung fails only when two trials fail: a noisy
            // neighbour's burst can fail one trial of a rate the server
            // sustains, but cannot make an unsustainable rate pass.
            PhaseStats ph;
            for (int trial = 0; trial < 2; ++trial) {
                ph = runPhase(*stack->timed, corpus,
                              static_cast<size_t>(probes) * 97, n, rate,
                              kArrivalSeed + 1000 * static_cast<uint64_t>(mid) +
                                  static_cast<uint64_t>(trial),
                              spans);
                account(ph, false, res);
                ++probes;
                if (sustained(ph))
                    break;
            }
            std::fprintf(stderr,
                         "ladder %.0f rps: %d sent, %d shed, p50 %.2f ms, "
                         "p99 %.2f ms, quarter medians %.2f -> %.2f ms, "
                         "steal %.2f s: %s\n",
                         rate, ph.sent, ph.shed, quantile(ph.latencyMs, 0.5),
                         quantile(ph.latencyMs, 0.99), ph.firstQuarterMedianMs,
                         ph.lastQuarterMedianMs, ph.contention.stealS,
                         sustained(ph) ? "sustained" : "not sustained");
            (sustained(ph) ? lo : hi) = mid;
        }

        res.set("setup_s", median(setup_s), "s");
        res.set("host_fps", median(call_fps), "1/s");
        res.set("cpu_ms_per_image", served ? cpu_s * 1e3 / served : 0.0, "ms");
        res.set("serve.p50_ms", median(p50), "ms");
        res.set("serve.p99_ms", median(p99), "ms");
        res.set("serve.capacity_rps", lo >= 0 ? kLadder[lo] : 0.0, "1/s");
        res.info["nominal_requests"] = per * kWindows;
        res.info["ladder_probes"] = probes;
        res.info["timed.wall_s"] = wall_s;
        res.info["timed.cpu_s"] = cpu_s;
        res.info["timed.steal_s"] = steal_s;
    } else {
        // Same nominal load, first untraced then traced, for the
        // tracing overhead; per-layer numbers come from the traced half.
        const int half = std::max(1, nominal_n / 2);
        const PhaseStats plain = runPhase(*stack->timed, corpus, 0, half,
                                          kNominalRps, kArrivalSeed, spans);
        account(plain, true, res);
        PhaseStats traced;
        double calibrate_ms = 0.0, partition_ms = 0.0;
        {
            TraceWindow window(spans);
            traced = runPhase(*stack->timed, corpus, static_cast<size_t>(half),
                              half, kNominalRps, kArrivalSeed + 1, spans);
            account(traced, true, res);
            // Layers this workload does not run in its setup, measured
            // on its own graph so every per-layer metric exists here.
            Timed root(spans, "probes", "bench");
            {
                compile::ScheduleConfig sc;
                sc.chips = 1;
                Timed tm(spans, "compile::Schedule::partition", "compile",
                         &partition_ms);
                (void)compile::Schedule::partition(*stack->graph, sc);
            }
            {
                Tensor calib({4, 3, kHw, kHw});
                for (int64_t i = 0; i < 4; ++i)
                    std::copy(corpus[static_cast<size_t>(i)].image.data(),
                              corpus[static_cast<size_t>(i)].image.data() +
                                  corpus[0].image.numel(),
                              calib.data() + i * corpus[0].image.numel());
                Timed tm(spans, "sim::Calibrator", "sim", &calibrate_ms);
                sim::Calibrator cal(*stack->graph, stack->states, serveConfig());
                cal.observe(calib);
                (void)cal.table();
            }
            engineProbe(heaviestLayer(stack->states), serveConfig().mapping,
                        serveConfig().engine, opt.seed, true, 0.5, spans, res);
        }
        reportServeLayer(traced, res);
        res.set("compile.lower_ms", times.lowerMs, "ms");
        res.set("compile.fold_ms", times.foldMs, "ms");
        res.set("compile.partition_ms", partition_ms, "ms");
        res.set("compile.stages", 1, "count");
        res.set("admm.project_ms", times.projectMs, "ms");
        res.set("sim.build_ms", times.buildMs, "ms");
        res.set("sim.calibrate_ms", calibrate_ms, "ms");

        std::vector<double> backend_ms;
        double backend_ns = 0.0;
        for (const BatchRecord &b : traced.batches) {
            backend_ms.push_back(static_cast<double>(b.endNs - b.startNs) * 1e-6);
            backend_ns += static_cast<double>(b.endNs - b.startNs);
        }
        res.set("sim.call_ms.p50", quantile(backend_ms, 0.5), "ms");
        res.set("sim.call_ms.p90", quantile(backend_ms, 0.9), "ms");
        const double adc_per_request =
            static_cast<double>(counts.adcSamples) / counts.images;
        res.set("sim.host_ns_per_adc_sample",
                traced.ok ? backend_ns / (adc_per_request * traced.ok) : 0.0,
                "ns");
        res.set("sim.bubble_frac", 0.0, "frac");
        res.set("sim.makespan_us", counts.timeNs * 1e-3 / counts.images, "us");
        res.set("arch.faulty_crossbars", 0, "count");
        res.set("arch.remapped_crossbars", 0, "count");
        counts.report(res);
        const double p50_plain = quantile(plain.latencyMs, 0.5);
        res.set("obs.trace_overhead_frac",
                p50_plain > 0 ? quantile(traced.latencyMs, 0.5) / p50_plain - 1.0
                              : 0.0,
                "frac");
    }

    res.set("model.fps",
            counts.timeNs > 0 ? counts.images / (counts.timeNs * 1e-9) : 0.0,
            "1/s");
    res.set("model.energy_uj_per_image",
            counts.energyPj * 1e-6 / counts.images, "uJ");
}

} // namespace perfbench
