/**
 * @file
 * Output checks and modeled-statistics accounting shared by the
 * workloads, plus the arch-layer engine probe.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <vector>

#include "admm/compressor.hh"
#include "arch/engine.hh"
#include "arch/mapping.hh"
#include "harness.hh"
#include "sim/runtime.hh"
#include "tensor/tensor.hh"

namespace perfbench {

/** True when `a` and `b` hold the same floats, bit for bit. */
bool sameBits(const forms::Tensor &a, const forms::Tensor &b);

/** Row `row` of `batch` (N x ...) equals the flat tensor `one`. */
bool sameRow(const forms::Tensor &batch, int64_t row, const forms::Tensor &one);

/** Every layer's EngineStats of `a` and `b` are byte-identical. */
bool sameStats(const forms::sim::RuntimeReport &a,
               const forms::sim::RuntimeReport &b);

/** Same as sameStats over two per-request report lists. */
bool sameStats(const std::vector<forms::sim::RuntimeReport> &a,
               const std::vector<forms::sim::RuntimeReport> &b);

/**
 * Modeled work summed over per-request reports. Each request is one
 * image, so the per-image figures divide by `images`.
 */
struct ArchCounts
{
    int64_t images = 0;
    uint64_t presentations = 0;
    uint64_t bitCycles = 0;
    uint64_t skippedCycles = 0;
    uint64_t adcSamples = 0;
    uint64_t quantValues = 0;
    uint64_t quantClipped = 0;
    double timeNs = 0.0;      //!< layer-sequential ADC-limited time
    double energyPj = 0.0;    //!< ADC + crossbar energy

    void add(const forms::sim::RuntimeReport &r);

    /** Write the arch.* per-image counts into `res`. */
    void report(Result &res) const;
};

/** Matrix-node state with the most weights (the probe's target). */
const forms::admm::LayerState &
heaviestLayer(const std::vector<forms::admm::LayerState> &states);

/**
 * Arch-layer probe on `state`, mapped with mapLayer:
 *  - always: with a lossless ADC and no variation or noise, mvmKeyed
 *    outputs must equal referenceMvm exactly (a mismatch fails `res`);
 *  - when `timeIt`: times mvmKeyed under the workload's EngineConfig
 *    for about `seconds` and reports arch.probe_ns_per_adc_sample.
 */
void engineProbe(const forms::admm::LayerState &state,
                 const forms::arch::MappingConfig &mapping,
                 const forms::arch::EngineConfig &engine, uint64_t seed,
                 bool timeIt, double seconds, Spans &spans, Result &res);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
