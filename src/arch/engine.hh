/**
 * @file
 * Functional MCU engine: executes a mapped layer on simulated ReRAM
 * crossbars with bit-serial inputs, fragment (sub-array) activation,
 * zero-skipping, ADC conversion and signed digital accumulation
 * (paper §IV, Figure 11) — collecting cycle / conversion / energy
 * statistics along the way.
 *
 * With ideal devices and lossless ADC resolution the engine is
 * integer-exact against referenceMvm(); with the paper's 3/4/5-bit
 * ADCs or device variation enabled, the induced numerical error is
 * measurable (and tested to stay small for trained weight
 * distributions).
 */

#ifndef FORMS_ARCH_ENGINE_HH
#define FORMS_ARCH_ENGINE_HH

#include "arch/mapping.hh"
#include "arch/zero_skip.hh"
#include "common/simd.hh"
#include "common/threadpool.hh"
#include "reram/adc.hh"
#include "reram/crossbar.hh"
#include "reram/faults.hh"

namespace forms::arch {

/**
 * How activation vectors are quantized onto the unsigned bit-serial
 * input grid (DESIGN.md §2).
 *
 * - PerPresentation: the scale is each presentation's own max / qmax —
 *   an idealized per-vector dynamic range no fixed DAC grid can
 *   provide. Kept as the reference upper bound.
 * - Static: one offline-calibrated scale per programmed layer
 *   (compile::CalibrationTable, built by sim::Calibrator), frozen at
 *   deployment time as on real hardware. Out-of-range activations
 *   saturate at the grid max and are counted in
 *   EngineStats::quantClipped.
 */
enum class ScaleMode
{
    PerPresentation,  //!< idealized per-vector max scale
    Static,           //!< offline-calibrated fixed scale
};

/** Engine knobs beyond the mapping geometry. */
struct EngineConfig
{
    int adcBits = 0;           //!< 0 = lossless (exact integer sums)
    double adcFreqGhz = 2.1;
    int adcsPerCrossbar = 4;
    bool zeroSkip = true;
    reram::CellConfig cell;    //!< device model (variation etc.)
    uint64_t variationSeed = 99;

    /**
     * Transient read noise: multiplicative log-normal sigma applied to
     * every analog column sum at read time (0 = noiseless reads).
     * Unlike device variation (drawn once at program time), this is
     * per-presentation randomness; its stream is keyed by
     * (variationSeed, presentation key) so execution is bit-identical
     * regardless of thread count or batch split.
     */
    double readNoiseSigma = 0.0;

    /**
     * Optional hard-fault model (reram/faults.hh). When set, the
     * realized conductance tiles are overlaid at construction with
     * the deterministic fault pattern of (faults->config().seed,
     * faultKey, crossbar physId): stuck-at-LRS cells read as the
     * device's maximum level, stuck-at-HRS cells and dead columns as
     * 0, drifted cells as programmed x factor. Borrowed pointer, not
     * owned; null means fault-free. faultKey names this engine's
     * logical owner (the graph node id in the compiled runtimes) so
     * every runtime and replica draws an identical pattern.
     */
    const reram::FaultMap *faults = nullptr;
    uint64_t faultKey = 0;

    /**
     * Kernel table for this engine's hot loop, resolved once at
     * construction. Auto is the best table the CPU supports (cpuid);
     * Scalar pins the bitwise reference, which is how tests and the
     * cross-runtime fuzz compare the two. Every mode is bit-identical
     * by the common/simd.hh contract.
     */
    simd::Mode simdMode = simd::Mode::Auto;
};

/** Execution statistics of one engine run. */
struct EngineStats
{
    uint64_t presentations = 0;   //!< input vectors processed
    uint64_t bitCycles = 0;       //!< (fragment, bit) activations
    uint64_t skippedCycles = 0;   //!< bit cycles avoided by zero-skip
    uint64_t adcSamples = 0;      //!< individual conversions
    uint64_t quantValues = 0;     //!< activation scalars quantized
    uint64_t quantClipped = 0;    //!< saturated at the static grid max
    double adcEnergyPj = 0.0;
    double crossbarEnergyPj = 0.0;
    double timeNs = 0.0;          //!< ADC-limited serial time

    /** Fraction of potential bit cycles skipped. */
    double skipFraction() const
    {
        const double tot =
            static_cast<double>(bitCycles + skippedCycles);
        return tot > 0.0 ? static_cast<double>(skippedCycles) / tot : 0.0;
    }

    /**
     * Fraction of quantized activation values that saturated the
     * input grid. Always 0 under ScaleMode::PerPresentation (the
     * idealized scale adapts); under ScaleMode::Static it measures
     * how much of the dynamic range the calibration left uncovered.
     */
    double clipFraction() const
    {
        return quantValues > 0
            ? static_cast<double>(quantClipped) /
                static_cast<double>(quantValues)
            : 0.0;
    }

    void merge(const EngineStats &other);
};

/** Executes mapped layers on simulated crossbars. */
class CrossbarEngine
{
  public:
    /**
     * Program the mapped layer onto simulated crossbar arrays.
     * Device variation (if configured) is drawn once here, at
     * program time, as on real hardware.
     */
    CrossbarEngine(const MappedLayer &layer, EngineConfig cfg);

    /**
     * Matrix-vector products over the slice [lo, hi) of `batch`, the
     * engine's one execution entry. Each presentation batch[j] is
     * indexed by the layer's natural input indices (values on the
     * cfg.inputBits grid) and draws its read-noise RNG from the stream
     * keyed by (variationSeed, keys[j]). Output j - lo holds signed
     * outputs in integer level units, indexed by the natural output
     * index (the referenceMvm convention).
     *
     * A programmed engine is immutable, so the result depends only on
     * (inputs, keys): two engines programmed from the same config give
     * bit-identical outputs for the same key, whatever either ran
     * before — the mechanism behind the serving layer's
     * batch-invariance contract (docs/SERVING.md) and the replica
     * slicing of sim::NodeExec. Presentations shard across `pool`
     * (null = the process-wide pool) and per-presentation stats merge
     * into `stats` in ascending j order, so outputs AND merged stats
     * are bit-identical for any thread count, and running [lo, k) then
     * [k, hi) into one accumulator equals running [lo, hi). When
     * `per` is non-null it is an accumulator array parallel to
     * `batch`: presentation j's stats additionally merge into per[j] —
     * the per-request stats channel.
     */
    std::vector<std::vector<double>>
    mvmKeyed(const std::vector<std::vector<uint32_t>> &batch, size_t lo,
             size_t hi, const uint64_t *keys, EngineStats *stats = nullptr,
             EngineStats *per = nullptr, ThreadPool *pool = nullptr) const;

    /** Effective ADC resolution in use (lossless when cfg was 0). */
    int adcBitsInUse() const { return adc_.config().bits; }

    /** Name of the kernel variant this engine resolved to. */
    const char *kernelName() const { return kern_->name; }

    const MappedLayer &layer() const { return layer_; }

    /** Crossbars whose used window carries at least one fault. */
    int64_t faultyCrossbars() const { return faultyCrossbars_; }

    /** Stuck or drifted cells within the used windows. */
    int64_t faultyCells() const { return faultyCells_; }

  private:
    /**
     * Execute one presentation. Const and self-contained (all scratch
     * is local, the programmed tiles are only read), so concurrent
     * calls from pool workers are safe.
     */
    void mvmOne(const std::vector<uint32_t> &inputs, uint64_t key,
                std::vector<double> &out, EngineStats &stats) const;

    /**
     * One crossbar's realized conductances re-laid as a contiguous
     * tile: row r's cell columns at lvl[r * cellCols + cc], so the
     * per-bit MVM is a stride-1 sweep over active rows' panels.
     * Snapshotted from the programmed arrays at construction (device
     * variation is drawn at program time, so the values are frozen).
     */
    struct XbarTile
    {
        std::vector<double> lvl;          //!< rows x cellCols, row-panel
        std::vector<double> fragReadEpj;  //!< read energy per fragment bit
        int cellCols = 0;
    };

    const MappedLayer &layer_;
    EngineConfig cfg_;
    reram::AdcModel adc_;
    double fullScale_;             //!< ADC full-scale in level units
    std::vector<XbarTile> tiles_;
    std::vector<double> bitWeight_;   //!< 2^p per input bit position
    std::vector<double> cellWeight_;  //!< 2^(s*cellBits) per cell slice
    const simd::Kernels *kern_ = nullptr;
    int outputExtent_ = 0;         //!< 1 + max natural output index
    double worstStepNs_ = 0.0;     //!< slowest crossbar's per-step time
    int64_t faultyCrossbars_ = 0;  //!< tiles overlaid with any fault
    int64_t faultyCells_ = 0;      //!< stuck/drifted cells (used window)
};

/**
 * Convenience: dequantize engine outputs back to real units given the
 * weight grid `w_scale` and activation grid `in_scale`.
 */
std::vector<float> dequantizeOutputs(const std::vector<double> &raw,
                                     float w_scale, float in_scale);

/** Quantize a nonnegative activation vector to `bits` unsigned ints. */
std::vector<uint32_t> quantizeActivations(const std::vector<float> &x,
                                          int bits, float *scale_out);

/**
 * Quantize against a frozen grid: q = round(x / scale) clamped to
 * [0, 2^bits - 1]. Negative values map to zero (unsigned bit-serial
 * encoding); values past the grid max saturate and are counted into
 * `*clipped_out` (accumulated, not assigned — callers fold several
 * presentations into one counter).
 */
std::vector<uint32_t> quantizeActivationsStatic(
    const std::vector<float> &x, int bits, float scale,
    uint64_t *clipped_out = nullptr);

} // namespace forms::arch

#endif // FORMS_ARCH_ENGINE_HH
