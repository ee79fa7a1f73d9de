/**
 * @file
 * Golden digests: absolute numeric behaviour, pinned.
 *
 * The other runtime suites compare executors against each other, so a
 * shared-engine change that shifts every executor the same way would
 * pass them all. Each case here runs one seeded configuration through
 * the compiled path and pins a 64-bit FNV-1a digest of the logits
 * bytes and of every EngineStats field of every programmed node.
 *
 * The digests are a pure function of the configuration: the contracts
 * make them independent of thread count, micro-batch size, chip count,
 * serving batch placement and the dispatched SIMD kernel (scalar,
 * AVX2, NEON). A digest may only move in a change that declares a
 * numeric-contract change and regenerates it; any other move is a bug.
 * On mismatch the failure message prints the new value.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstring>
#include <future>

#include "compile/calibration.hh"
#include "compile/passes.hh"
#include "compile/schedule.hh"
#include "nn/layers.hh"
#include "nn/zoo.hh"
#include "reram/faults.hh"
#include "serve/backends.hh"
#include "serve/server.hh"
#include "sim/calibrator.hh"
#include "sim/graph_runtime.hh"
#include "sim/pipeline_runtime.hh"

namespace forms {
namespace {

/** 64-bit FNV-1a over a byte stream. */
class Digest
{
  public:
    void bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    void value(T v)
    {
        bytes(&v, sizeof(v));
    }

    void tensor(const Tensor &t)
    {
        bytes(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
    }

    void stats(const arch::EngineStats &s)
    {
        value(s.presentations);
        value(s.bitCycles);
        value(s.skippedCycles);
        value(s.adcSamples);
        value(s.quantValues);
        value(s.quantClipped);
        value(s.adcEnergyPj);
        value(s.crossbarEnergyPj);
        value(s.timeNs);
    }

    void report(const sim::RuntimeReport &r)
    {
        for (const auto &l : r.layers)
            stats(l.stats);
    }

    uint64_t get() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

void
expectDigest(uint64_t got, uint64_t want)
{
    EXPECT_EQ(got, want) << strfmt("digest moved: got 0x%016" PRIx64
                                   "ULL", got);
}

uint64_t
digestOf(const Tensor &logits, const sim::RuntimeReport &rep)
{
    Digest d;
    d.tensor(logits);
    d.report(rep);
    return d.get();
}

/** Mapping shared by every compiled case. */
sim::RuntimeConfig
baseConfig(ThreadPool *pool, int adc_bits)
{
    sim::RuntimeConfig cfg;
    cfg.mapping.xbarRows = 64;
    cfg.mapping.xbarCols = 64;
    cfg.mapping.fragSize = 8;
    cfg.mapping.inputBits = 8;
    cfg.engine.adcBits = adc_bits;
    cfg.pool = pool;
    return cfg;
}

/** 3-bit ADC + device variation + read noise. */
sim::RuntimeConfig
noisyConfig(ThreadPool *pool)
{
    sim::RuntimeConfig cfg = baseConfig(pool, 3);
    cfg.engine.cell.variationSigma = 0.1;
    cfg.engine.readNoiseSigma = 0.02;
    return cfg;
}

/** Compile + fold + compress a scaled ResNet, ready to program. */
struct CompiledResNet
{
    std::unique_ptr<nn::Network> net;
    compile::Graph graph;
    std::vector<admm::LayerState> states;
    Tensor batch;

    CompiledResNet() : batch({2, 3, 32, 32})
    {
        Rng rng(9001);
        net = nn::buildResNetSmall(rng, 4, 8, 1);
        graph = compile::lowerNetwork(*net);
        graph.inferShapes({3, 32, 32});
        compile::foldBatchNorm(graph);
        states = sim::snapshotCompress(*net, 8, 8);
        batch.fillUniform(rng, 0.0f, 1.0f);
    }
};

/**
 * Stem-dominated straight-line net: the partitioner replicates its
 * stem conv across chips.
 */
struct CompiledStemHeavy
{
    std::unique_ptr<nn::Network> net;
    compile::Graph graph;
    std::vector<admm::LayerState> states;
    Tensor batch;

    CompiledStemHeavy() : batch({5, 3, 32, 32})
    {
        Rng rng(9101);
        net = std::make_unique<nn::Network>();
        net->emplace<nn::Conv2D>("stem", 3, 16, 3, 1, 1, rng);
        net->emplace<nn::ReLU>("stem_relu");
        net->emplace<nn::MaxPool2D>("pool", 2, 2);
        net->emplace<nn::Conv2D>("mid", 16, 4, 3, 1, 1, rng);
        net->emplace<nn::ReLU>("mid_relu");
        net->emplace<nn::Flatten>("flat");
        net->emplace<nn::Dense>("fc", 4 * 16 * 16, 4, rng);
        graph = compile::lowerNetwork(*net);
        graph.inferShapes({3, 32, 32});
        states = sim::snapshotCompress(*net, 8, 8);
        batch.fillUniform(rng, 0.0f, 1.0f);
    }
};

uint64_t
graphDigest(CompiledResNet &c, const sim::RuntimeConfig &cfg)
{
    sim::GraphRuntime rt(c.graph, c.states, cfg);
    sim::PipelineReport rep;
    const Tensor logits = rt.forward(c.batch, &rep);
    return digestOf(logits, rep.nodes);
}

TEST(Golden, LosslessAdc)
{
    CompiledResNet c;
    ThreadPool pool(4);
    expectDigest(graphDigest(c, baseConfig(&pool, 0)), 0xc4df2892d7b3524dULL);
}

TEST(Golden, FourBitAdc)
{
    CompiledResNet c;
    ThreadPool pool(4);
    expectDigest(graphDigest(c, baseConfig(&pool, 4)), 0xc680072afbf67010ULL);
}

TEST(Golden, ThreeBitAdcVariationReadNoise)
{
    CompiledResNet c;
    ThreadPool pool(4);
    expectDigest(graphDigest(c, noisyConfig(&pool)), 0xf5fb5b23b33137bbULL);
}

TEST(Golden, StaticCalibration)
{
    CompiledResNet c;
    ThreadPool pool(4);
    Rng crng(9002);
    Tensor calib({4, 3, 32, 32});
    calib.fillUniform(crng, 0.0f, 1.0f);
    sim::Calibrator cal(c.graph, c.states, noisyConfig(&pool), {});
    cal.observe(calib);
    const compile::CalibrationTable table = cal.table();

    sim::RuntimeConfig cfg = noisyConfig(&pool);
    cfg.scaleMode = arch::ScaleMode::Static;
    cfg.calibration = &table;
    expectDigest(graphDigest(c, cfg), 0x25c4bf562c0f9453ULL);
}

TEST(Golden, ColumnKillWithRemap)
{
    CompiledResNet c;
    ThreadPool pool(4);
    reram::FaultConfig fc;
    fc.columnKillRate = 1e-3;
    fc.seed = 9003;
    reram::FaultMap map(fc);

    // Unrepaired, the kills reach used columns (pins the overlay);
    // repaired, they do not (pins the remap).
    sim::RuntimeConfig cfg = noisyConfig(&pool);
    cfg.faults = &map;
    expectDigest(graphDigest(c, cfg), 0x320d7d278e7da53cULL);
    cfg.remapFaults = true;
    cfg.mapping.spareXbars = 16;
    expectDigest(graphDigest(c, cfg), 0xf5fb5b23b33137bbULL);
}

/**
 * Noisy pipelined run of the stem-heavy net on `chips` chips with
 * stage replication enabled; the partitioner replicates the stem from
 * three chips up.
 */
uint64_t
pipelineDigest(int chips, bool expect_replicated)
{
    CompiledStemHeavy c;
    ThreadPool pool(4);
    compile::ScheduleConfig scfg;
    scfg.chips = chips;
    scfg.replicateThreshold = 1.0;
    scfg.maxReplicas = 3;
    compile::Schedule sched = compile::Schedule::partition(c.graph, scfg);
    EXPECT_EQ(sched.replicated(), expect_replicated);

    sim::PipelineRuntimeConfig pcfg;
    pcfg.runtime = noisyConfig(&pool);
    pcfg.microBatch = 2;
    sim::PipelineRuntime rt(c.graph, std::move(sched), c.states, pcfg);
    sim::PipelineReport rep;
    const Tensor logits = rt.forward(c.batch, &rep);
    return digestOf(logits, rep.nodes);
}

TEST(Golden, PipelineOneChip)
{
    expectDigest(pipelineDigest(1, false), 0x41d4def31017678bULL);
}

TEST(Golden, PipelineTwoChips)
{
    expectDigest(pipelineDigest(2, false), 0x41d4def31017678bULL);
}

TEST(Golden, PipelineFourChipsReplicated)
{
    expectDigest(pipelineDigest(4, true), 0x41d4def31017678bULL);
}

TEST(Golden, ServedBatch)
{
    constexpr int kHw = 12, kReq = 10;
    Rng rng(9004);
    nn::Network net;
    net.emplace<nn::Conv2D>("conv1", 3, 4, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("relu1");
    net.emplace<nn::MaxPool2D>("pool", 2, 2);
    net.emplace<nn::Flatten>("flat");
    net.emplace<nn::Dense>("fc", 4 * (kHw / 2) * (kHw / 2), 3, rng);
    compile::Graph graph = compile::lowerNetwork(net);
    graph.inferShapes({3, kHw, kHw});
    auto states = sim::snapshotCompress(net, 8, 8);

    ThreadPool pool(4);
    sim::GraphRuntime rt(graph, states, noisyConfig(&pool));
    serve::GraphBackend backend(rt);
    serve::ServerConfig sc;
    sc.maxBatch = 4;
    sc.maxDelayUs = 2000;
    serve::Server server(backend, sc);

    // Batch placement is timing-dependent; the responses are not.
    std::vector<std::future<serve::Response>> futs;
    for (int i = 0; i < kReq; ++i) {
        Tensor img({3, kHw, kHw});
        img.fillUniform(rng, 0.0f, 1.0f);
        futs.push_back(server.submit(img, 100 + static_cast<uint64_t>(i)));
    }
    Digest d;
    for (auto &f : futs) {
        const serve::Response r = f.get();
        ASSERT_EQ(r.status, serve::Status::Ok);
        d.tensor(r.logits);
        d.report(r.report);
    }
    server.shutdown();
    expectDigest(d.get(), 0x97e9ddaab42f8e03ULL);
}

/**
 * The straight-line CIFAR-10-geometry net of bench_fig13's runtime
 * section, its configuration and batch, over two consecutive
 * forward() calls (the second draws image ids 8..15).
 */
TEST(Golden, Fig13NetOnGraphRuntime)
{
    Rng rng(5);
    nn::Network net;
    net.emplace<nn::Conv2D>("conv1", 3, 16, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("relu1");
    net.emplace<nn::MaxPool2D>("pool1", 2, 2);
    net.emplace<nn::Conv2D>("conv2", 16, 32, 3, 1, 1, rng);
    net.emplace<nn::ReLU>("relu2");
    net.emplace<nn::MaxPool2D>("pool2", 2, 2);
    net.emplace<nn::Flatten>("flat");
    net.emplace<nn::Dense>("fc", 32 * 4 * 4, 10, rng);
    auto states = sim::snapshotCompress(net, 8, 8);
    Tensor batch({8, 3, 16, 16});
    batch.fillUniform(rng, 0.0f, 1.0f);

    compile::Graph graph = compile::lowerNetwork(net);
    graph.inferShapes({3, 16, 16});
    ThreadPool pool(4);
    sim::RuntimeConfig cfg;
    cfg.mapping.fragSize = 8;
    cfg.mapping.inputBits = 8;
    cfg.engine.adcBits = 4;
    cfg.pool = &pool;
    sim::GraphRuntime rt(graph, states, cfg);

    Digest d;
    for (int call = 0; call < 2; ++call) {
        sim::PipelineReport rep;
        d.tensor(rt.forward(batch, &rep));
        d.report(rep.nodes);
        d.value(rep.nodes.presentations);
    }
    expectDigest(d.get(), 0xf3da163b3f4297f1ULL);
}

/** One mapped layer, driven directly with keys 0..n-1 under noise. */
TEST(Golden, DirectNoisyMvmKeyed)
{
    Rng rng(9005);
    Tensor weight({16, 16, 3, 3}), grad({16, 16, 3, 3});
    weight.fillGaussian(rng, 0.0f, 0.4f);
    admm::LayerState st;
    st.name = "golden";
    st.param = {"w", &weight, &grad, true, false};
    st.plan = admm::FragmentPlan::forConv(
        16, 16, 3, 8, admm::PolarizationPolicy::CMajor);
    admm::WeightView v = admm::WeightView::conv(weight);
    st.signs = admm::computeSigns(v, st.plan);
    admm::projectPolarization(v, st.plan, *st.signs);
    admm::QuantSpec q;
    q.bits = 8;
    st.quantScale = admm::projectQuantize(v, q);
    arch::MappingConfig mcfg;
    mcfg.xbarRows = 64;
    mcfg.xbarCols = 64;
    mcfg.fragSize = 8;
    mcfg.inputBits = 8;
    const arch::MappedLayer mapped = arch::mapLayer(st, mcfg);

    constexpr size_t kPres = 24;
    std::vector<std::vector<uint32_t>> batch(kPres);
    for (auto &p : batch) {
        p.resize(static_cast<size_t>(mapped.logicalRows));
        for (uint32_t &x : p)
            x = rng.bernoulli(0.3) ? 0u
                                   : static_cast<uint32_t>(rng.below(256));
    }
    std::vector<uint64_t> keys(kPres);
    for (size_t i = 0; i < kPres; ++i)
        keys[i] = i;

    arch::EngineConfig ecfg;
    ecfg.adcBits = 4;
    ecfg.cell.variationSigma = 0.1;
    ecfg.readNoiseSigma = 0.02;
    arch::CrossbarEngine engine(mapped, ecfg);
    ThreadPool pool(4);
    arch::EngineStats stats;
    const auto outs =
        engine.mvmKeyed(batch, 0, kPres, keys.data(), &stats, nullptr,
                        &pool);

    Digest d;
    for (const auto &o : outs)
        d.bytes(o.data(), o.size() * sizeof(double));
    d.stats(stats);
    expectDigest(d.get(), 0x4528a1a4f397683bULL);
}

} // namespace
} // namespace forms
