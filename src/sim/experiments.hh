/**
 * @file
 * High-level experiment drivers shared by the benchmark binaries:
 * pretrain a (scaled) network on a synthetic dataset, run the ADMM
 * compression pipeline at several fragment sizes, and report the
 * Tables I/II / Figure 6 style rows, and the Table VI variation study
 * on the compiled crossbar path.
 *
 * Scaled-geometry note: the trainable stand-in networks have tens of
 * filters per layer, so the crossbar-aware rounding runs against a
 * proportionally scaled crossbar extent (`xbarDim`) — the mechanism is
 * identical, only the granularity is scaled with the model (see
 * DESIGN.md §2).
 */

#ifndef FORMS_SIM_EXPERIMENTS_HH
#define FORMS_SIM_EXPERIMENTS_HH

#include "admm/compressor.hh"
#include "admm/report.hh"
#include "common/stats.hh"

namespace forms::sim {

/** Which trainable stand-in network to build. */
enum class NetKind
{
    LeNet5,
    VggSmall,
    ResNetSmall,
    ResNetDeep,
};

/** Build a stand-in network for a dataset. */
std::unique_ptr<nn::Network> buildNet(NetKind kind,
                                      const nn::DatasetConfig &data,
                                      Rng &rng);

/** One compression experiment specification. */
struct CompressionExperimentSpec
{
    std::string label;
    NetKind net = NetKind::VggSmall;
    nn::DatasetConfig data;
    double filterKeep = 0.6;
    double shapeKeep = 0.6;
    std::vector<int> fragSizes = {4, 8, 16};
    int quantBits = 8;
    admm::PolarizationPolicy policy = admm::PolarizationPolicy::CMajor;
    int64_t xbarDim = 16;      //!< scaled crossbar extent (see header)
    int pretrainEpochs = 10;
    int admmEpochsPerPhase = 3;
    int finetuneEpochs = 3;
    uint64_t seed = 42;
    bool prune = true;
    bool polarize = true;
    bool quantize = true;
};

/** One row of a Tables I/II style result. */
struct CompressionExperimentRow
{
    int fragSize = 0;
    double accuracyDropPct = 0.0;    //!< vs. the pretrained model
    double pruneRatio = 1.0;
    double crossbarReduction = 1.0;
    int64_t signViolations = 0;
};

/** Run the pipeline once per fragment size (fresh net each time). */
std::vector<CompressionExperimentRow>
runCompressionExperiment(const CompressionExperimentSpec &spec);

/** Figure 6 style: polarization-only accuracy vs fragment size. */
struct FragmentAccuracyPoint
{
    int fragSize = 0;
    double accuracy = 0.0;   //!< test accuracy after polarization
};

std::vector<FragmentAccuracyPoint>
runFragmentAccuracySweep(NetKind net, const nn::DatasetConfig &data,
                         const std::vector<int> &frag_sizes,
                         int pretrain_epochs, uint64_t seed);

/** Input precision of the variation study: 8-bit inputs, lossless ADC. */
inline constexpr int kVariationInputBits = 8;

/**
 * Device-variation study on the compiled conductance path (paper §V-E,
 * Table VI): the network is lowered, shape-inferred and BN-folded
 * (DigitalScale), programmed once without variation (the clean run)
 * and once per draw r with per-cell log-normal variation seeded by
 * `seed + r`. The runtime keeps its default geometry (fragment size 8)
 * and lossless ADC with `kVariationInputBits`-bit inputs, so variation
 * is the only error source.
 */
struct VariationStudyConfig
{
    double sigma = 0.1;     //!< log-normal cell sigma (paper: 0.1)
    int runs = 50;          //!< variation draws (paper: 50)
    uint64_t seed = 2024;   //!< engine variationSeed of draw 0
};

/** Outcome of one variation study. */
struct VariationStudyResult
{
    double cleanAccuracy = 0.0;   //!< programmed without variation
    RunningStat draws;            //!< accuracy over the variation draws
    int64_t crossbars = 0;        //!< arrays the network programs
    uint64_t adcSamples = 0;      //!< clean run, whole test split

    /** Accuracy degradation in percentage points. */
    double degradationPct() const
    {
        return (cleanAccuracy - draws.mean()) * 100.0;
    }
};

/** Study `net`, programmed from `states`, on the test split of `data`. */
VariationStudyResult runVariationStudy(
    nn::Network &net, std::vector<admm::LayerState> &states,
    const nn::SyntheticImageDataset &data, const VariationStudyConfig &cfg);

/** Table VI style: variation robustness of four model variants. */
struct VariationRow
{
    std::string variant;
    VariationStudyResult result;
};

/**
 * Study four variants of one network in two ADMM phase chains, each
 * over one deterministic pretraining: Original Model (the
 * AdmmCompressor's states with no phase run, its mixed-sign tiles
 * mapped as dual-crossbar pairs) then Polarization Only, and Pruning
 * Only then Full Optimization (polarize + quantize). Each later
 * variant continues from the earlier variant's compressor.
 */
std::vector<VariationRow>
runVariationExperiment(NetKind net, const nn::DatasetConfig &data,
                       const VariationStudyConfig &vcfg,
                       double filter_keep, double shape_keep,
                       int pretrain_epochs, uint64_t seed);

} // namespace forms::sim

#endif // FORMS_SIM_EXPERIMENTS_HH
