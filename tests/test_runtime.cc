/**
 * @file
 * Runtime vocabulary tests on a straight-line network: snapshotCompress
 * readies a sequential net for mapping, the net lowers through
 * compile::lowerNetwork onto sim::GraphRuntime, and the whole-network
 * forward is bit-identical across thread counts (logits AND merged
 * per-layer stats) with ADC quantization, device variation and read
 * noise enabled. RuntimeReport rows merge across forwards, and
 * resetPresentationStreams replays a noisy run exactly.
 */

#include <gtest/gtest.h>

#include "compile/passes.hh"
#include "nn/dataset.hh"
#include "nn/zoo.hh"
#include "sim/graph_runtime.hh"
#include "stats_testutil.hh"

namespace forms {
namespace {

/** Compress + lower the tiny sequential conv net, ready to program. */
struct CompiledTinyNet
{
    std::unique_ptr<nn::Network> net;
    compile::Graph graph;
    std::vector<admm::LayerState> states;

    explicit CompiledTinyNet(uint64_t seed)
    {
        Rng rng(seed);
        net = nn::buildTinyConvNet(rng, 4, 8, 1, 12);
        states = sim::snapshotCompress(*net, 4, 8);
        graph = compile::lowerNetwork(*net);
        graph.inferShapes({1, 12, 12});
    }
};

sim::RuntimeConfig
tinyConfig()
{
    sim::RuntimeConfig rcfg;
    rcfg.mapping.xbarRows = 16;
    rcfg.mapping.xbarCols = 16;
    rcfg.mapping.fragSize = 4;
    rcfg.mapping.inputBits = 12;
    return rcfg;
}

TEST(Runtime, SnapshotCompressCoversEveryPrunableLayer)
{
    CompiledTinyNet c(30);
    ASSERT_EQ(c.states.size(), 3u);   // conv1, conv2, fc
    for (const admm::LayerState &st : c.states) {
        EXPECT_FALSE(st.name.empty());
        EXPECT_TRUE(st.signs.has_value()) << st.name;
        EXPECT_GT(st.quantScale, 0.0f) << st.name;
    }
}

TEST(Runtime, ForwardBitIdenticalAcrossThreadCounts)
{
    CompiledTinyNet c(31);

    nn::DatasetConfig dcfg;
    dcfg.classes = 4;
    dcfg.channels = 1;
    dcfg.height = 12;
    dcfg.width = 12;
    dcfg.trainPerClass = 2;
    dcfg.testPerClass = 4;
    dcfg.seed = 77;
    nn::SyntheticImageDataset data(dcfg);

    sim::RuntimeConfig rcfg = tinyConfig();
    rcfg.engine.adcBits = 3;
    rcfg.engine.cell.variationSigma = 0.1;
    rcfg.engine.readNoiseSigma = 0.02;

    ThreadPool serial_pool(1), parallel_pool(4);

    rcfg.pool = &serial_pool;
    sim::GraphRuntime serial_rt(c.graph, c.states, rcfg);
    rcfg.pool = &parallel_pool;
    sim::GraphRuntime parallel_rt(c.graph, c.states, rcfg);

    EXPECT_EQ(serial_rt.programmedNodes(), 3u);
    EXPECT_GE(serial_rt.nodes(), serial_rt.programmedNodes());
    EXPECT_GT(serial_rt.totalCrossbars(), 0);

    sim::PipelineReport serial_prep, parallel_prep;
    const Tensor serial_logits =
        serial_rt.forward(data.test().images, &serial_prep);
    const Tensor parallel_logits =
        parallel_rt.forward(data.test().images, &parallel_prep);
    const sim::RuntimeReport &serial_rep = serial_prep.nodes;
    const sim::RuntimeReport &parallel_rep = parallel_prep.nodes;

    EXPECT_TRUE(serial_logits.equals(parallel_logits));

    ASSERT_EQ(serial_rep.layers.size(), parallel_rep.layers.size());
    for (size_t i = 0; i < serial_rep.layers.size(); ++i) {
        expectStatsIdentical(serial_rep.layers[i].stats,
                             parallel_rep.layers[i].stats);
    }
    EXPECT_EQ(serial_rep.presentations, parallel_rep.presentations);
    EXPECT_GT(serial_rep.presentations, 64u);
    EXPECT_GT(serial_rep.modelTimeNs(), 0.0);
    EXPECT_GT(serial_rep.modelEnergyPj(), 0.0);
}

TEST(Runtime, ResetPresentationStreamsReproducesNoisyRuns)
{
    CompiledTinyNet c(34);
    sim::RuntimeConfig rcfg = tinyConfig();
    rcfg.engine.readNoiseSigma = 0.05;
    sim::GraphRuntime rt(c.graph, c.states, rcfg);

    Rng rng(35);
    Tensor batch({2, 1, 12, 12});
    batch.fillUniform(rng, 0.0f, 1.0f);

    // With read noise, image ids continue across calls, so a repeat
    // differs — until the streams are reset.
    const Tensor first = rt.forward(batch);
    const Tensor drifted = rt.forward(batch);
    EXPECT_FALSE(first.equals(drifted));
    rt.resetPresentationStreams();
    const Tensor replay = rt.forward(batch);
    EXPECT_TRUE(first.equals(replay));
}

TEST(Runtime, ReportAccumulatesAcrossForwards)
{
    CompiledTinyNet c(33);
    sim::GraphRuntime rt(c.graph, c.states, tinyConfig());

    Rng rng(36);
    Tensor batch({2, 1, 12, 12});
    batch.fillUniform(rng, 0.0f, 1.0f);

    // One report over two minibatches: per-layer rows merge in place
    // instead of duplicating, and the counters accumulate.
    sim::PipelineReport rep;
    rt.forward(batch, &rep);
    const size_t rows = rep.nodes.layers.size();
    const uint64_t pres = rep.nodes.presentations;
    const uint64_t first_layer_pres = rep.nodes.layers[0].stats.presentations;
    rt.forward(batch, &rep);
    EXPECT_EQ(rep.nodes.layers.size(), rows);
    EXPECT_EQ(rep.nodes.presentations, 2 * pres);
    EXPECT_EQ(rep.nodes.layers[0].stats.presentations, 2 * first_layer_pres);
}

TEST(Runtime, AccuracyRunsAndIsBounded)
{
    CompiledTinyNet c(32);

    nn::DatasetConfig dcfg;
    dcfg.classes = 4;
    dcfg.channels = 1;
    dcfg.height = 12;
    dcfg.width = 12;
    dcfg.trainPerClass = 2;
    dcfg.testPerClass = 3;
    dcfg.seed = 78;
    nn::SyntheticImageDataset data(dcfg);

    sim::GraphRuntime rt(c.graph, c.states, tinyConfig());
    const double acc =
        rt.accuracy(data.test().images, data.test().labels);
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
}

} // namespace
} // namespace forms
