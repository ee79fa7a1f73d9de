#include "checks.hh"

#include <algorithm>
#include <cstring>

#include "common/rng.hh"

namespace perfbench {

using namespace forms;

// memcmp on EngineStats is only a field-wise compare without padding.
static_assert(sizeof(arch::EngineStats) ==
                  6 * sizeof(uint64_t) + 3 * sizeof(double),
              "EngineStats gained a field or padding; update sameStats");

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.numel() == b.numel() &&
        std::memcmp(a.data(), b.data(),
                    static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool
sameRow(const Tensor &batch, int64_t row, const Tensor &one)
{
    const int64_t width = one.numel();
    return batch.numel() >= (row + 1) * width &&
        std::memcmp(batch.data() + row * width, one.data(),
                    static_cast<size_t>(width) * sizeof(float)) == 0;
}

bool
sameStats(const sim::RuntimeReport &a, const sim::RuntimeReport &b)
{
    if (a.layers.size() != b.layers.size() ||
        a.presentations != b.presentations)
        return false;
    for (size_t i = 0; i < a.layers.size(); ++i)
        if (std::memcmp(&a.layers[i].stats, &b.layers[i].stats,
                        sizeof(arch::EngineStats)) != 0)
            return false;
    return true;
}

bool
sameStats(const std::vector<sim::RuntimeReport> &a,
          const std::vector<sim::RuntimeReport> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (!sameStats(a[i], b[i]))
            return false;
    return true;
}

void
ArchCounts::add(const sim::RuntimeReport &r)
{
    ++images;
    for (const sim::RuntimeLayerReport &l : r.layers) {
        presentations += l.stats.presentations;
        bitCycles += l.stats.bitCycles;
        skippedCycles += l.stats.skippedCycles;
        adcSamples += l.stats.adcSamples;
        quantValues += l.stats.quantValues;
        quantClipped += l.stats.quantClipped;
    }
    timeNs += r.modelTimeNs();
    energyPj += r.modelEnergyPj();
}

void
ArchCounts::report(Result &res) const
{
    const double n = static_cast<double>(std::max<int64_t>(images, 1));
    res.set("arch.presentations", static_cast<double>(presentations) / n,
            "count");
    res.set("arch.bit_cycles", static_cast<double>(bitCycles) / n, "count");
    res.set("arch.adc_samples", static_cast<double>(adcSamples) / n,
            "count");
    const uint64_t cycles = bitCycles + skippedCycles;
    res.set("arch.skip_frac",
            cycles ? static_cast<double>(skippedCycles) /
                    static_cast<double>(cycles)
                   : 0.0,
            "frac");
    res.set("arch.clip_frac",
            quantValues ? static_cast<double>(quantClipped) /
                    static_cast<double>(quantValues)
                        : 0.0,
            "frac");
}

const admm::LayerState &
heaviestLayer(const std::vector<admm::LayerState> &states)
{
    const admm::LayerState *best = &states.front();
    for (const admm::LayerState &s : states)
        if (s.param.value->numel() > best->param.value->numel())
            best = &s;
    return *best;
}

void
engineProbe(const admm::LayerState &state, const arch::MappingConfig &mapping,
            const arch::EngineConfig &engine, uint64_t seed, bool timeIt,
            double seconds, Spans &spans, Result &res)
{
    arch::MappedLayer mapped;
    {
        Timed t(spans, "arch::mapLayer", "arch");
        mapped = arch::mapLayer(state, mapping);
    }
    int inputs = 0;
    for (const arch::MappedCrossbar &xb : mapped.crossbars)
        for (int idx : xb.inputIndex)
            inputs = std::max(inputs, idx + 1);

    constexpr size_t kPresentations = 32;
    Rng rng(seed ^ 0x70b3ULL);
    const uint32_t levels = 1u << mapping.inputBits;
    std::vector<std::vector<uint32_t>> batch(
        kPresentations, std::vector<uint32_t>(static_cast<size_t>(inputs)));
    for (auto &v : batch)
        for (uint32_t &x : v)
            x = static_cast<uint32_t>(rng.below(levels));
    std::vector<uint64_t> keys(kPresentations);
    for (size_t i = 0; i < kPresentations; ++i)
        keys[i] = seed * kPresentations + i;
    ThreadPool &pool = benchPool(0);

    // Absolute numerics: a lossless engine must reproduce the integer
    // reference MVM exactly, whatever the executors agree on.
    {
        arch::EngineConfig lossless;
        lossless.adcBits = 0;
        lossless.simdMode = engine.simdMode;
        arch::CrossbarEngine eng(mapped, lossless);
        const auto out = eng.mvmKeyed(batch, 0, kPresentations, keys.data(),
                                      nullptr, nullptr, &pool);
        for (size_t p = 0; p < kPresentations; ++p) {
            const std::vector<int64_t> ref = arch::referenceMvm(mapped, batch[p]);
            bool ok = out[p].size() == ref.size();
            for (size_t o = 0; ok && o < ref.size(); ++o)
                ok = out[p][o] == static_cast<double>(ref[o]);
            ++res.attempted;
            if (!ok)
                res.fail("engine probe: lossless mvmKeyed differs from "
                         "referenceMvm on " + state.name);
        }
    }
    if (!timeIt)
        return;

    arch::CrossbarEngine eng(mapped, engine);
    arch::EngineStats stats;
    double ms = 0.0;
    const auto t0 = Clock::now();
    int reps = 0;
    while (reps < 3 || secondsSince(t0) < seconds) {
        Timed t(spans, "arch::CrossbarEngine::mvmKeyed", "arch", &ms);
        eng.mvmKeyed(batch, 0, kPresentations, keys.data(), &stats, nullptr,
                     &pool);
        ++reps;
    }
    res.set("arch.probe_ns_per_adc_sample",
            stats.adcSamples ? ms * 1e6 / static_cast<double>(stats.adcSamples)
                             : 0.0,
            "ns");
}

} // namespace perfbench
