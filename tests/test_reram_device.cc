/**
 * @file
 * Unit tests for the ReRAM device model: magnitude slicing round trips,
 * cell programming, conductance mapping, and the per-cell log-normal
 * conductance variation.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "reram/device.hh"

namespace forms::reram {
namespace {

TEST(Slicing, RoundTripAllValues8Bit)
{
    for (uint32_t v = 0; v < 256; ++v) {
        const auto levels = sliceMagnitude(v, 8, 2);
        EXPECT_EQ(levels.size(), 4u);
        EXPECT_EQ(unsliceMagnitude(levels, 2), v);
    }
}

TEST(Slicing, RoundTripMixedPrecisions)
{
    Rng rng(1);
    for (int wb : {4, 6, 8, 12, 16}) {
        for (int cb : {1, 2, 4}) {
            for (int trial = 0; trial < 50; ++trial) {
                const uint32_t v = static_cast<uint32_t>(
                    rng.below(1ull << wb));
                EXPECT_EQ(unsliceMagnitude(sliceMagnitude(v, wb, cb), cb),
                          v);
            }
        }
    }
}

TEST(Slicing, LevelsRespectCellRange)
{
    const auto levels = sliceMagnitude(255, 8, 2);
    for (int l : levels) {
        EXPECT_GE(l, 0);
        EXPECT_LE(l, 3);
    }
}

TEST(Slicing, CellsPerWeight)
{
    EXPECT_EQ(cellsPerWeight(8, 2), 4);
    EXPECT_EQ(cellsPerWeight(16, 2), 8);
    EXPECT_EQ(cellsPerWeight(7, 2), 4);
    EXPECT_EQ(cellsPerWeight(32, 2), 16);
}

TEST(Cell, ProgramIdeal)
{
    CellConfig cfg;
    Cell cell;
    cell.program(3, cfg, nullptr);
    EXPECT_EQ(cell.level(), 3);
    EXPECT_DOUBLE_EQ(cell.analogLevel(), 3.0);
}

TEST(Cell, ConductanceSpansRange)
{
    CellConfig cfg;
    Cell lo, hi;
    lo.program(0, cfg, nullptr);
    hi.program(cfg.maxLevel(), cfg, nullptr);
    EXPECT_DOUBLE_EQ(lo.conductanceUs(cfg), cfg.gMinUs);
    EXPECT_DOUBLE_EQ(hi.conductanceUs(cfg), cfg.gMaxUs);
}

TEST(Cell, VariationPerturbsMultiplicatively)
{
    CellConfig cfg;
    cfg.variationSigma = 0.1;
    Rng rng(5);
    RunningStat ratio;
    for (int i = 0; i < 20000; ++i) {
        Cell c;
        c.program(2, cfg, &rng);
        ratio.add(c.analogLevel() / 2.0);
    }
    // Log-normal(0, 0.1): mean exp(0.005) ~ 1.005.
    EXPECT_NEAR(ratio.mean(), std::exp(0.005), 0.01);
    EXPECT_GT(ratio.stddev(), 0.05);
}

TEST(Cell, ZeroLevelImmuneToVariation)
{
    CellConfig cfg;
    cfg.variationSigma = 0.5;
    Rng rng(6);
    Cell c;
    c.program(0, cfg, &rng);
    EXPECT_DOUBLE_EQ(c.analogLevel(), 0.0);
}

} // namespace
} // namespace forms::reram
