/**
 * @file
 * Tests for the functional crossbar engine: integer exactness at
 * lossless ADC resolution (parameterized over fragment sizes, for
 * polarized layers and for the dual-crossbar pairs of unpolarized
 * ones), bounded error at the paper's reduced resolutions, zero-skip
 * equivalence and cycle savings, device-variation behaviour, and the
 * keyed-execution determinism contract: mvmKeyed's outputs AND merged
 * stats depend only on (inputs, keys) — not on the pool's thread
 * count, on how a batch is split into slices, or on what the engine
 * ran before — including with ADC quantization, device variation and
 * transient read noise enabled.
 */

#include <gtest/gtest.h>

#include <limits>

#include "arch/engine.hh"
#include "sim/activation_model.hh"
#include "stats_testutil.hh"

namespace forms::arch {
namespace {

using admm::FragmentPlan;
using admm::PolarizationPolicy;
using admm::WeightView;

struct TestLayer
{
    Tensor weight;
    Tensor grad;
    admm::LayerState state;

    TestLayer(int cout, int cin, int k, int frag, uint64_t seed,
              bool polarize = true)
        : weight({cout, cin, k, k}), grad({cout, cin, k, k})
    {
        Rng rng(seed);
        weight.fillGaussian(rng, 0.0f, 0.5f);
        state.name = "engine-test";
        state.param = {"w", &weight, &grad, true, false};
        state.plan = FragmentPlan::forConv(cout, cin, k, frag,
                                           PolarizationPolicy::WMajor);
        WeightView v = WeightView::conv(weight);
        if (polarize) {
            state.signs = admm::computeSigns(v, state.plan);
            admm::projectPolarization(v, state.plan, *state.signs);
        }
        admm::QuantSpec q;
        q.bits = 8;
        state.quantScale = admm::projectQuantize(v, q);
    }
};

MappingConfig
makeCfg(int frag)
{
    MappingConfig cfg;
    cfg.xbarRows = 32;
    cfg.xbarCols = 32;
    cfg.weightBits = 8;
    cfg.cellBits = 2;
    cfg.inputBits = 12;
    cfg.fragSize = frag;
    return cfg;
}

std::vector<uint32_t>
randomInputs(size_t n, int bits, uint64_t seed, double zero_frac = 0.3)
{
    Rng rng(seed);
    std::vector<uint32_t> v(n);
    for (auto &x : v) {
        if (rng.bernoulli(zero_frac)) {
            x = 0;
        } else {
            // Heavy-tailed small values like real activations.
            const double val = std::exp(rng.gaussian(3.0, 1.5));
            x = static_cast<uint32_t>(
                std::min(val, std::pow(2.0, bits) - 1));
        }
    }
    return v;
}

/** Keys 0..n-1: the stream ids of a fresh offline run. */
std::vector<uint64_t>
sequentialKeys(size_t n)
{
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i)
        keys[i] = i;
    return keys;
}

/** The whole batch under keys 0..n-1. */
std::vector<std::vector<double>>
mvmAll(const CrossbarEngine &engine,
       const std::vector<std::vector<uint32_t>> &batch,
       EngineStats *stats = nullptr, ThreadPool *pool = nullptr)
{
    const auto keys = sequentialKeys(batch.size());
    return engine.mvmKeyed(batch, 0, batch.size(), keys.data(), stats,
                           nullptr, pool);
}

/** One presentation under key 0. */
std::vector<double>
mvmOne(const CrossbarEngine &engine, const std::vector<uint32_t> &inputs,
       EngineStats *stats = nullptr)
{
    return mvmAll(engine, {inputs}, stats).front();
}

class EngineExactnessTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EngineExactnessTest, LosslessAdcIsIntegerExact)
{
    const int frag = GetParam();
    TestLayer layer(10, 4, 3, frag, 100 + frag);
    MappingConfig mcfg = makeCfg(frag);
    MappedLayer mapped = mapLayer(layer.state, mcfg);

    EngineConfig ecfg;
    ecfg.adcBits = 0;   // lossless
    CrossbarEngine engine(mapped, ecfg);

    auto inputs = randomInputs(36, mcfg.inputBits, 7);
    auto got = mvmOne(engine, inputs);
    auto expect = referenceMvm(mapped, inputs);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_DOUBLE_EQ(got[i], static_cast<double>(expect[i]))
            << "output " << i;
}

TEST_P(EngineExactnessTest, BatchedLosslessAdcIsIntegerExact)
{
    const int frag = GetParam();
    TestLayer layer(10, 4, 3, frag, 300 + frag);
    MappingConfig mcfg = makeCfg(frag);
    MappedLayer mapped = mapLayer(layer.state, mcfg);

    EngineConfig ecfg;
    ecfg.adcBits = 0;   // lossless
    CrossbarEngine engine(mapped, ecfg);

    std::vector<std::vector<uint32_t>> batch;
    for (uint64_t s = 0; s < 6; ++s)
        batch.push_back(randomInputs(36, mcfg.inputBits, 20 + s));

    ThreadPool pool(4);
    auto got = mvmAll(engine, batch, nullptr, &pool);
    ASSERT_EQ(got.size(), batch.size());
    for (size_t b = 0; b < batch.size(); ++b) {
        auto expect = referenceMvm(mapped, batch[b]);
        ASSERT_EQ(got[b].size(), expect.size());
        for (size_t i = 0; i < got[b].size(); ++i)
            EXPECT_DOUBLE_EQ(got[b][i], static_cast<double>(expect[i]))
                << "presentation " << b << " output " << i;
    }
}

TEST_P(EngineExactnessTest, UnpolarizedDualPairsAreIntegerExact)
{
    // A mixed-sign layer maps as positive/negative crossbar pairs; the
    // lossless engine must still reproduce the signed reference.
    const int frag = GetParam();
    TestLayer layer(10, 4, 3, frag, 500 + frag, /*polarize=*/false);
    MappingConfig mcfg = makeCfg(frag);
    MappedLayer mapped = mapLayer(layer.state, mcfg);
    TestLayer twin(10, 4, 3, frag, 500 + frag);
    ASSERT_EQ(mapped.numCrossbars(),
              2 * mapLayer(twin.state, mcfg).numCrossbars());

    EngineConfig ecfg;
    ecfg.adcBits = 0;   // lossless
    CrossbarEngine engine(mapped, ecfg);

    std::vector<std::vector<uint32_t>> batch;
    for (uint64_t s = 0; s < 4; ++s)
        batch.push_back(randomInputs(36, mcfg.inputBits, 40 + s));
    auto got = mvmAll(engine, batch);
    for (size_t b = 0; b < batch.size(); ++b) {
        auto expect = referenceMvm(mapped, batch[b]);
        ASSERT_EQ(got[b].size(), expect.size());
        for (size_t i = 0; i < got[b].size(); ++i)
            EXPECT_EQ(got[b][i], static_cast<double>(expect[i]))
                << "presentation " << b << " output " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(FragSizes, EngineExactnessTest,
                         ::testing::Values(4, 8, 16, 32));

TEST(Engine, ZeroSkipDoesNotChangeResults)
{
    TestLayer layer(8, 4, 3, 8, 11);
    MappedLayer mapped = mapLayer(layer.state, makeCfg(8));

    EngineConfig with, without;
    with.zeroSkip = true;
    without.zeroSkip = false;
    CrossbarEngine e1(mapped, with), e2(mapped, without);

    auto inputs = randomInputs(36, 12, 8);
    EngineStats s1, s2;
    auto r1 = mvmOne(e1, inputs, &s1);
    auto r2 = mvmOne(e2, inputs, &s2);
    ASSERT_EQ(r1.size(), r2.size());
    for (size_t i = 0; i < r1.size(); ++i)
        EXPECT_DOUBLE_EQ(r1[i], r2[i]);
    // ...but it must save cycles on sparse/small inputs.
    EXPECT_LT(s1.bitCycles, s2.bitCycles);
    EXPECT_GT(s1.skippedCycles, 0u);
    EXPECT_EQ(s2.skippedCycles, 0u);
}

TEST(Engine, SmallerFragmentsSkipMore)
{
    // The unique-opportunity claim (paper §IV-B): skip fraction grows
    // as fragments shrink.
    auto skip_fraction = [](int frag) {
        TestLayer layer(8, 8, 3, frag, 200);
        MappedLayer mapped = mapLayer(layer.state, makeCfg(frag));
        EngineConfig cfg;
        CrossbarEngine engine(mapped, cfg);
        auto inputs = randomInputs(72, 12, 9);
        EngineStats stats;
        mvmOne(engine, inputs, &stats);
        return stats.skipFraction();
    };
    const double f4 = skip_fraction(4);
    const double f32 = skip_fraction(32);
    EXPECT_GT(f4, f32);
}

TEST(Engine, PaperAdcResolutionErrorIsBounded)
{
    TestLayer layer(8, 4, 3, 8, 13);
    MappedLayer mapped = mapLayer(layer.state, makeCfg(8));

    EngineConfig paper;
    paper.adcBits = 4;   // the paper's choice for fragment size 8
    CrossbarEngine engine(mapped, paper);

    auto inputs = randomInputs(36, 12, 10);
    auto got = mvmOne(engine, inputs);
    auto expect = referenceMvm(mapped, inputs);

    double rel = 0.0;
    double norm = 0.0;
    for (size_t i = 0; i < got.size(); ++i) {
        rel += std::fabs(got[i] - static_cast<double>(expect[i]));
        norm += std::fabs(static_cast<double>(expect[i]));
    }
    ASSERT_GT(norm, 0.0);
    // 4-bit conversion of a 0..24 range loses fine codes; trained
    // (polarized, small-magnitude) weights keep the error modest.
    EXPECT_LT(rel / norm, 0.25);
}

TEST(Engine, VariationPerturbsOutputs)
{
    TestLayer layer(8, 4, 3, 8, 17);
    MappedLayer mapped = mapLayer(layer.state, makeCfg(8));

    EngineConfig ideal, noisy;
    noisy.cell.variationSigma = 0.1;
    CrossbarEngine e_ideal(mapped, ideal), e_noisy(mapped, noisy);

    auto inputs = randomInputs(36, 12, 11, 0.0);
    auto r_ideal = mvmOne(e_ideal, inputs);
    auto r_noisy = mvmOne(e_noisy, inputs);
    double diff = 0.0, norm = 0.0;
    for (size_t i = 0; i < r_ideal.size(); ++i) {
        diff += std::fabs(r_ideal[i] - r_noisy[i]);
        norm += std::fabs(r_ideal[i]);
    }
    EXPECT_GT(diff, 0.0);
    EXPECT_LT(diff / norm, 0.5);
}

TEST(Engine, StatsAccounting)
{
    TestLayer layer(8, 4, 3, 8, 19);
    MappedLayer mapped = mapLayer(layer.state, makeCfg(8));
    EngineConfig cfg;
    cfg.zeroSkip = false;
    CrossbarEngine engine(mapped, cfg);
    auto inputs = randomInputs(36, 12, 12);
    EngineStats stats;
    mvmOne(engine, inputs, &stats);

    // Without skipping: bit cycles = sum over crossbars and fragments
    // of inputBits.
    uint64_t expect_cycles = 0;
    for (const auto &xb : mapped.crossbars)
        expect_cycles += static_cast<uint64_t>(xb.fragsUsed) * 12;
    EXPECT_EQ(stats.bitCycles, expect_cycles);
    EXPECT_GT(stats.adcSamples, stats.bitCycles);
    EXPECT_GT(stats.adcEnergyPj, 0.0);
    EXPECT_GT(stats.timeNs, 0.0);
    EXPECT_EQ(stats.presentations, 1u);
}

/**
 * Scalar and dispatched engines are bit-identical — outputs AND stats
 * — with ADC quantization, device variation and read noise all on.
 * Geometries are chosen so the per-fragment column panels are NOT a
 * multiple of the 4-wide vector blocks (cellBits 8 gives one cell per
 * weight, so odd weight-column counts force 1–3-element tail lanes).
 */
TEST(Engine, ScalarAndDispatchedKernelsAreBitIdentical)
{
    struct Geometry
    {
        int cellBits, frag, cout;
    };
    for (const Geometry geo : {Geometry{8, 4, 5}, Geometry{2, 8, 6},
                               Geometry{4, 16, 7}}) {
        SCOPED_TRACE(strfmt("cellBits=%d frag=%d cout=%d", geo.cellBits,
                            geo.frag, geo.cout));
        TestLayer layer(geo.cout, 3, 3, geo.frag, 99);
        MappingConfig mcfg = makeCfg(geo.frag);
        mcfg.cellBits = geo.cellBits;
        mcfg.inputBits = 8;
        const MappedLayer mapped = mapLayer(layer.state, mcfg);

        EngineConfig scfg;
        scfg.adcBits = 4;
        scfg.cell.bitsPerCell = geo.cellBits;
        scfg.cell.variationSigma = 0.1;
        scfg.readNoiseSigma = 0.02;
        EngineConfig dcfg = scfg;
        scfg.simdMode = simd::Mode::Scalar;
        dcfg.simdMode = simd::Mode::Auto;

        CrossbarEngine scalar_eng(mapped, scfg);
        CrossbarEngine dispatch_eng(mapped, dcfg);
        EXPECT_STREQ(scalar_eng.kernelName(), "scalar");

        std::vector<std::vector<uint32_t>> batch;
        for (uint64_t p = 0; p < 6; ++p) {
            batch.push_back(randomInputs(
                static_cast<size_t>(mapped.logicalRows), 8, 1000 + p));
        }
        EngineStats want, got;
        const auto ref = mvmAll(scalar_eng, batch, &want);
        const auto out = mvmAll(dispatch_eng, batch, &got);
        ASSERT_EQ(ref.size(), out.size());
        for (size_t p = 0; p < ref.size(); ++p) {
            ASSERT_EQ(ref[p].size(), out[p].size());
            for (size_t c = 0; c < ref[p].size(); ++c)
                EXPECT_EQ(ref[p][c], out[p][c])
                    << "presentation " << p << " column " << c;
        }
        expectStatsIdentical(want, got);
    }
}

/**
 * A device model whose precision disagrees with the mapping's slicing
 * must be rejected up front with an actionable message (this also
 * regression-tests FORMS_ASSERT's formatted-argument path, which used
 * to crash inside panic() instead of printing).
 */
TEST(Engine, RejectsMismatchedCellPrecision)
{
    TestLayer layer(4, 3, 3, 8, 7);
    MappingConfig mcfg = makeCfg(8);
    mcfg.cellBits = 4;
    const MappedLayer mapped = mapLayer(layer.state, mcfg);
    EngineConfig ecfg;   // cell model still at the 2-bit default
    EXPECT_DEATH(CrossbarEngine(mapped, ecfg),
                 "4 bits/cell|bitsPerCell");
}

TEST(Engine, QuantizeActivationsRoundTrip)
{
    std::vector<float> x = {0.0f, -0.5f, 1.0f, 0.25f};
    float scale = 0.0f;
    auto q = quantizeActivations(x, 8, &scale);
    EXPECT_EQ(q[0], 0u);
    EXPECT_EQ(q[1], 0u);   // negatives clamp (post-ReLU convention)
    EXPECT_EQ(q[2], 255u);
    EXPECT_NEAR(static_cast<float>(q[3]) * scale, 0.25f, scale);
}

TEST(Engine, DequantizeScalesProducts)
{
    std::vector<double> raw = {100.0, -50.0};
    auto out = dequantizeOutputs(raw, 0.01f, 0.002f);
    EXPECT_NEAR(out[0], 100.0 * 0.01 * 0.002, 1e-9);
    EXPECT_NEAR(out[1], -50.0 * 0.01 * 0.002, 1e-9);
}

/**
 * Non-finite activations must not reach lround: NaN and +inf take the
 * top code (as quantizeActivationsStatic saturates them), -inf is a
 * negative and maps to zero, and the finite values keep the scale
 * their own maximum sets — a +inf must not turn the scale into inf.
 */
TEST(Engine, QuantizeActivationsSaturatesNonFinite)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    float scale = 0.0f;
    const auto q = quantizeActivations({nan, inf, -inf, 0.5f, 1.0f}, 8,
                                       &scale);
    EXPECT_EQ(q[0], 255u);
    EXPECT_EQ(q[1], 255u);
    EXPECT_EQ(q[2], 0u);
    EXPECT_EQ(q[4], 255u);
    EXPECT_FLOAT_EQ(scale, 1.0f / 255.0f);
    float finite_scale = 0.0f;
    const auto finite = quantizeActivations({0.5f, 1.0f}, 8, &finite_scale);
    EXPECT_EQ(scale, finite_scale);
    EXPECT_EQ(q[3], finite[0]);

    // No finite positive value at all: unit scale, non-finite on top.
    const auto only = quantizeActivations({nan, -inf}, 4, &scale);
    EXPECT_EQ(only[0], 15u);
    EXPECT_EQ(only[1], 0u);
    EXPECT_EQ(scale, 1.0f);
}

// ---------------------------------------------------------------------
// Keyed execution: the engine's determinism contract.
// ---------------------------------------------------------------------

/** Polarized, quantized random conv layer mapped onto crossbars. */
MappedLayer
buildContractLayer(Tensor &weight, Tensor &grad, uint64_t seed)
{
    Rng rng(seed);
    weight.fillGaussian(rng, 0.0f, 0.4f);

    admm::LayerState st;
    st.name = "keyed-test";
    st.param = {"w", &weight, &grad, true, false};
    st.plan = FragmentPlan::forConv(16, 16, 3, 8,
                                    PolarizationPolicy::CMajor);
    WeightView v = WeightView::conv(weight);
    st.signs = admm::computeSigns(v, st.plan);
    admm::projectPolarization(v, st.plan, *st.signs);
    admm::QuantSpec q;
    q.bits = 8;
    st.quantScale = admm::projectQuantize(v, q);

    MappingConfig mcfg;
    mcfg.xbarRows = 64;
    mcfg.xbarCols = 64;
    mcfg.fragSize = 8;
    mcfg.inputBits = 16;
    return mapLayer(st, mcfg);
}

std::vector<std::vector<uint32_t>>
samplePresentations(size_t count, size_t rows, uint64_t seed)
{
    sim::ActivationModel act = sim::ActivationModel::calibratedResNet50();
    Rng rng(seed);
    std::vector<std::vector<uint32_t>> batch;
    batch.reserve(count);
    for (size_t i = 0; i < count; ++i)
        batch.push_back(act.sampleVector(rng, rows));
    return batch;
}

/**
 * One mvmKeyed call sharded over a `threads`-thread pool vs one call
 * per key on a 1-thread pool: bit-identical outputs and stats fold.
 */
void
checkPoolMatchesPerKeyCalls(EngineConfig ecfg, int threads)
{
    static Tensor weight({16, 16, 3, 3}), grad({16, 16, 3, 3});
    const MappedLayer mapped = buildContractLayer(weight, grad, 2024);
    const auto batch = samplePresentations(33, 16 * 9, 7);
    const auto keys = sequentialKeys(batch.size());

    // Two engines with identical construction: program-time variation
    // draws are identical.
    const CrossbarEngine serial_engine(mapped, ecfg);
    const CrossbarEngine batch_engine(mapped, ecfg);

    ThreadPool one(1);
    EngineStats serial_stats;
    std::vector<std::vector<double>> serial_out;
    for (size_t i = 0; i < batch.size(); ++i) {
        serial_out.push_back(
            serial_engine
                .mvmKeyed(batch, i, i + 1, keys.data(), &serial_stats,
                          nullptr, &one)
                .front());
    }

    ThreadPool pool(threads);
    EngineStats batch_stats;
    const auto batch_out = batch_engine.mvmKeyed(
        batch, 0, batch.size(), keys.data(), &batch_stats, nullptr, &pool);

    ASSERT_EQ(batch_out.size(), serial_out.size());
    for (size_t i = 0; i < batch_out.size(); ++i)
        EXPECT_EQ(batch_out[i], serial_out[i]) << "presentation " << i;
    expectStatsIdentical(batch_stats, serial_stats);
    EXPECT_EQ(batch_stats.presentations, batch.size());
}

TEST(MvmKeyed, PoolMatchesPerKeyCallsLossless)
{
    EngineConfig ecfg;
    ecfg.adcBits = 0;
    checkPoolMatchesPerKeyCalls(ecfg, 4);
}

TEST(MvmKeyed, PoolMatchesPerKeyCallsWithAdcQuantization)
{
    EngineConfig ecfg;
    ecfg.adcBits = 4;
    checkPoolMatchesPerKeyCalls(ecfg, 4);
}

TEST(MvmKeyed, PoolMatchesPerKeyCallsWithDeviceVariation)
{
    EngineConfig ecfg;
    ecfg.adcBits = 4;
    ecfg.cell.variationSigma = 0.1;
    checkPoolMatchesPerKeyCalls(ecfg, 4);
}

TEST(MvmKeyed, PoolMatchesPerKeyCallsWithReadNoise)
{
    // Read noise is the per-presentation stochastic path: its streams
    // are keyed by (seed, key), not by thread.
    EngineConfig ecfg;
    ecfg.adcBits = 5;
    ecfg.cell.variationSigma = 0.1;
    ecfg.readNoiseSigma = 0.05;
    checkPoolMatchesPerKeyCalls(ecfg, 4);
    checkPoolMatchesPerKeyCalls(ecfg, 7);
}

TEST(MvmKeyed, SameKeySameBitsDifferentKeyDifferentNoise)
{
    static Tensor weight({16, 16, 3, 3}), grad({16, 16, 3, 3});
    const MappedLayer mapped = buildContractLayer(weight, grad, 12);
    const auto batch = samplePresentations(4, 16 * 9, 9);

    EngineConfig noisy;
    noisy.adcBits = 0;
    noisy.readNoiseSigma = 0.2;
    const CrossbarEngine clean_engine(mapped, {});
    const CrossbarEngine noisy_engine(mapped, noisy);
    const CrossbarEngine noisy_again(mapped, noisy);

    const auto clean = mvmAll(clean_engine, batch);
    const auto first = mvmAll(noisy_engine, batch);
    // Same key, another engine, after unrelated work: same bits.
    (void)mvmAll(noisy_again, samplePresentations(3, 16 * 9, 10));
    EXPECT_EQ(mvmAll(noisy_again, batch), first);
    EXPECT_NE(first, clean);   // the noise actually does something

    std::vector<uint64_t> shifted = sequentialKeys(batch.size());
    for (uint64_t &k : shifted)
        k += 1000;
    const auto other = noisy_engine.mvmKeyed(batch, 0, batch.size(),
                                             shifted.data());
    for (size_t i = 0; i < batch.size(); ++i)
        EXPECT_NE(other[i], first[i]) << "presentation " << i;
}

/**
 * Splitting a batch into [0,k) + [k,p) reproduces [0,p): outputs, the
 * `stats` fold and the per-presentation `per_out` channel — what lets
 * replica engines take slices of one micro-batch.
 */
TEST(MvmKeyed, SplitSlicesEqualTheWholeRange)
{
    static Tensor weight({16, 16, 3, 3}), grad({16, 16, 3, 3});
    const MappedLayer mapped = buildContractLayer(weight, grad, 31);
    const auto batch = samplePresentations(9, 16 * 9, 32);
    std::vector<uint64_t> keys = sequentialKeys(batch.size());
    for (uint64_t &k : keys)
        k = k * 7 + 3;   // arbitrary stable ids, not a prefix stream

    EngineConfig ecfg;
    ecfg.adcBits = 4;
    ecfg.cell.variationSigma = 0.1;
    ecfg.readNoiseSigma = 0.05;
    const CrossbarEngine whole_engine(mapped, ecfg);
    const CrossbarEngine lo_engine(mapped, ecfg);
    const CrossbarEngine hi_engine(mapped, ecfg);
    ThreadPool pool(4);

    const size_t p = batch.size();
    EngineStats whole_stats;
    std::vector<EngineStats> whole_per(p);
    const auto whole = whole_engine.mvmKeyed(
        batch, 0, p, keys.data(), &whole_stats, whole_per.data(), &pool);

    for (size_t k = 0; k <= p; ++k) {
        SCOPED_TRACE(strfmt("split at %zu", k));
        EngineStats split_stats;
        std::vector<EngineStats> split_per(p);
        auto out = lo_engine.mvmKeyed(batch, 0, k, keys.data(),
                                      &split_stats, split_per.data(),
                                      &pool);
        auto tail_out = hi_engine.mvmKeyed(batch, k, p, keys.data(),
                                           &split_stats, split_per.data(),
                                           &pool);
        for (auto &v : tail_out)
            out.push_back(std::move(v));
        EXPECT_EQ(out, whole);
        expectStatsIdentical(split_stats, whole_stats);
        for (size_t i = 0; i < p; ++i)
            expectStatsIdentical(split_per[i], whole_per[i]);
    }
}

} // namespace
} // namespace forms::arch
