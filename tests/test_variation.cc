/**
 * @file
 * Tests for the device-variation study on the compiled conductance
 * path: near-zero sigma keeps accuracy, a larger sigma degrades at
 * least as much, the same seeds reproduce bitwise, a study writes
 * neither the network's weights nor its layer states, and an unpolarized
 * network (dual-crossbar pairs) programs twice the arrays of its
 * polarized twin and runs on every chip count.
 */

#include <gtest/gtest.h>

#include "compile/passes.hh"
#include "sim/experiments.hh"
#include "sim/graph_runtime.hh"

namespace forms::sim {
namespace {

constexpr int kFrag = 8;

struct Fixture
{
    nn::DatasetConfig cfg;
    nn::SyntheticImageDataset data;
    std::unique_ptr<nn::Network> net;

    Fixture() : cfg(makeCfg()), data(cfg)
    {
        Rng rng(31);
        net = nn::buildTinyConvNet(rng, cfg.classes, 8, 1, 12);
        nn::TrainConfig tc;
        tc.epochs = 6;
        tc.batchSize = 16;
        nn::Trainer trainer(*net, data, tc);
        trainer.run();
    }

    static nn::DatasetConfig
    makeCfg()
    {
        nn::DatasetConfig c;
        c.classes = 4;
        c.channels = 1;
        c.height = 12;
        c.width = 12;
        c.trainPerClass = 32;
        c.testPerClass = 16;
        c.noise = 0.4f;
        c.nonneg = true;   // unsigned bit-serial input encoding
        c.seed = 101;
        return c;
    }

    /** Polarized + 8-bit quantized state (projects the weights). */
    std::vector<admm::LayerState>
    polarized()
    {
        return snapshotCompress(*net, kFrag, 8);
    }
};

VariationStudyConfig
studyConfig(double sigma, int runs)
{
    VariationStudyConfig vc;
    vc.sigma = sigma;
    vc.runs = runs;
    return vc;
}

TEST(VariationStudy, NearZeroSigmaKeepsAccuracy)
{
    Fixture f;
    auto states = f.polarized();
    auto res = runVariationStudy(*f.net, states, f.data,
                                 studyConfig(1e-6, 3));
    ASSERT_EQ(res.draws.count(), 3u);
    EXPECT_GT(res.cleanAccuracy, 0.5);
    EXPECT_NEAR(res.draws.mean(), res.cleanAccuracy, 0.03);
}

TEST(VariationStudy, LargeSigmaDegradesMore)
{
    Fixture f;
    auto states = f.polarized();
    auto rs = runVariationStudy(*f.net, states, f.data,
                                studyConfig(0.05, 6));
    auto rl = runVariationStudy(*f.net, states, f.data,
                                studyConfig(0.5, 6));
    EXPECT_DOUBLE_EQ(rs.cleanAccuracy, rl.cleanAccuracy);
    EXPECT_LE(rs.degradationPct(), rl.degradationPct() + 1.0);
}

TEST(VariationStudy, Reproducible)
{
    Fixture f;
    auto states = f.polarized();
    const VariationStudyConfig vc = studyConfig(0.1, 4);
    auto a = runVariationStudy(*f.net, states, f.data, vc);
    auto b = runVariationStudy(*f.net, states, f.data, vc);
    EXPECT_EQ(a.cleanAccuracy, b.cleanAccuracy);
    EXPECT_EQ(a.draws.mean(), b.draws.mean());
    EXPECT_EQ(a.draws.variance(), b.draws.variance());
    EXPECT_EQ(a.draws.min(), b.draws.min());
    EXPECT_EQ(a.draws.max(), b.draws.max());
    EXPECT_EQ(a.adcSamples, b.adcSamples);
}

TEST(VariationStudy, StudyLeavesWeightsAndStatesUnchanged)
{
    // runVariationExperiment chains ADMM phases across studies, which
    // is sound only while a study writes neither the network nor the
    // layer states.
    Fixture f;
    auto states = f.polarized();
    std::vector<Tensor> params;
    for (const auto &p : f.net->params())
        params.push_back(*p.value);
    const auto signsOf = [](const admm::LayerState &s) {
        std::vector<int8_t> out;
        for (int64_t c = 0; c < s.signs->cols(); ++c)
            for (int64_t g = 0; g < s.signs->fragsPerCol(); ++g)
                out.push_back(s.signs->get(c, g));
        return out;
    };
    std::vector<std::vector<int8_t>> signs;
    std::vector<float> scales;
    for (const auto &s : states) {
        ASSERT_TRUE(s.signs.has_value());
        signs.push_back(signsOf(s));
        scales.push_back(s.quantScale);
    }

    runVariationStudy(*f.net, states, f.data, studyConfig(0.1, 2));

    const auto after = f.net->params();
    ASSERT_EQ(after.size(), params.size());
    for (size_t i = 0; i < params.size(); ++i)
        EXPECT_TRUE(after[i].value->equals(params[i])) << after[i].name;
    for (size_t i = 0; i < states.size(); ++i) {
        EXPECT_EQ(signsOf(states[i]), signs[i]) << states[i].name;
        EXPECT_EQ(states[i].quantScale, scales[i]) << states[i].name;
    }
}

TEST(VariationStudy, UnpolarizedNetProgramsDualCrossbarPairs)
{
    // The AdmmCompressor's states with no phase run keep the trained
    // weights' mixed-sign fragments.
    Fixture f;
    admm::AdmmConfig acfg;
    acfg.fragSize = kFrag;
    admm::AdmmCompressor comp(*f.net, f.data, acfg);
    const VariationStudyConfig vc = studyConfig(0.1, 2);
    auto unpol = runVariationStudy(*f.net, comp.layers(), f.data, vc);
    EXPECT_GT(unpol.cleanAccuracy, 0.5);
    ASSERT_EQ(unpol.draws.count(), 2u);

    // The pairs run on every chip count: a 2-chip pipeline matches the
    // single-chip runtime bit for bit, variation included.
    compile::Graph graph = compile::lowerNetwork(*f.net);
    graph.inferShapes({1, 12, 12});
    RuntimeConfig rc;
    rc.mapping.inputBits = kVariationInputBits;
    rc.engine.cell.variationSigma = 0.1;
    GraphRuntime one(graph, comp.layers(), rc);
    compile::ScheduleConfig scfg;
    scfg.chips = 2;
    PipelineRuntime two(graph, compile::Schedule::partition(graph, scfg),
                        comp.layers(), {rc, /*microBatch=*/2, {}, {},
                                        nullptr});
    ASSERT_EQ(two.chips(), 2);
    const Tensor &images = f.data.test().images;
    EXPECT_TRUE(two.forward(images).equals(one.forward(images)));

    // Polarizing the same weights maps every tile as one crossbar.
    auto states = f.polarized();
    auto pol = runVariationStudy(*f.net, states, f.data, vc);
    EXPECT_EQ(unpol.crossbars, 2 * pol.crossbars);
    EXPECT_GT(unpol.adcSamples, pol.adcSamples);
}

} // namespace
} // namespace forms::sim
