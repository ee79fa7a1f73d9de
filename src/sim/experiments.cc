#include "sim/experiments.hh"

#include "compile/passes.hh"
#include "sim/graph_runtime.hh"

namespace forms::sim {

std::unique_ptr<nn::Network>
buildNet(NetKind kind, const nn::DatasetConfig &data, Rng &rng)
{
    // Scaled stand-ins sized for CPU benching: base channel width 8
    // keeps every structural feature (stages, residual blocks, >=128-row
    // weight matrices for large fragments) at tractable cost.
    switch (kind) {
      case NetKind::LeNet5:
        return nn::buildLeNet5(rng, data.classes);
      case NetKind::VggSmall:
        return nn::buildVggSmall(rng, data.classes, 8);
      case NetKind::ResNetSmall:
        return nn::buildResNetSmall(rng, data.classes, 8);
      case NetKind::ResNetDeep:
        return nn::buildResNetDeep(rng, data.classes, 8);
    }
    return nullptr;
}

namespace {

/** Pretrain a fresh network; returns it plus its test accuracy. */
std::pair<std::unique_ptr<nn::Network>, double>
pretrain(NetKind kind, const nn::SyntheticImageDataset &data, int epochs,
         uint64_t seed)
{
    Rng rng(seed);
    auto net = buildNet(kind, data.config(), rng);
    nn::TrainConfig tc;
    tc.epochs = epochs;
    tc.seed = seed + 1;
    nn::Trainer trainer(*net, data, tc);
    auto res = trainer.run();
    return {std::move(net), res.testAccuracy};
}

admm::AdmmConfig
makeAdmmConfig(const CompressionExperimentSpec &spec, int frag)
{
    admm::AdmmConfig cfg;
    cfg.prune = spec.prune;
    cfg.polarize = spec.polarize;
    cfg.quantize = spec.quantize;
    cfg.filterKeep = spec.filterKeep;
    cfg.shapeKeep = spec.shapeKeep;
    cfg.xbarDim = spec.xbarDim;
    cfg.fragSize = frag;
    cfg.policy = spec.policy;
    cfg.quantBits = spec.quantBits;
    cfg.admmEpochsPerPhase = spec.admmEpochsPerPhase;
    cfg.finetuneEpochs = spec.finetuneEpochs;
    cfg.train.seed = spec.seed + 17;
    return cfg;
}

} // namespace

std::vector<CompressionExperimentRow>
runCompressionExperiment(const CompressionExperimentSpec &spec)
{
    nn::SyntheticImageDataset data(spec.data);
    std::vector<CompressionExperimentRow> rows;

    for (int frag : spec.fragSizes) {
        auto [net, base_acc] =
            pretrain(spec.net, data, spec.pretrainEpochs, spec.seed);

        admm::AdmmConfig cfg = makeAdmmConfig(spec, frag);
        admm::AdmmCompressor comp(*net, data, cfg);
        auto outcome = comp.run();

        auto report = admm::buildReport(
            comp, outcome,
            admm::baselineMapping32(spec.xbarDim, spec.xbarDim),
            admm::formsMapping(spec.quantBits, spec.xbarDim,
                               spec.xbarDim));

        CompressionExperimentRow row;
        row.fragSize = frag;
        row.accuracyDropPct = (base_acc - outcome.accuracyAfter) * 100.0;
        row.pruneRatio = report.pruneRatio;
        row.crossbarReduction = report.crossbarReduction;
        row.signViolations = outcome.signViolations;
        rows.push_back(row);
    }
    return rows;
}

std::vector<FragmentAccuracyPoint>
runFragmentAccuracySweep(NetKind net, const nn::DatasetConfig &data_cfg,
                         const std::vector<int> &frag_sizes,
                         int pretrain_epochs, uint64_t seed)
{
    nn::SyntheticImageDataset data(data_cfg);
    std::vector<FragmentAccuracyPoint> points;
    for (int frag : frag_sizes) {
        auto [network, base_acc] =
            pretrain(net, data, pretrain_epochs, seed);
        (void)base_acc;

        admm::AdmmConfig cfg;
        cfg.prune = false;
        cfg.quantize = false;
        cfg.polarize = true;
        cfg.fragSize = frag;
        cfg.admmEpochsPerPhase = 2;
        cfg.finetuneEpochs = 2;
        cfg.train.seed = seed + 17;
        admm::AdmmCompressor comp(*network, data, cfg);
        auto outcome = comp.run();

        points.push_back({frag, outcome.accuracyAfter});
    }
    return points;
}

VariationStudyResult
runVariationStudy(nn::Network &net, std::vector<admm::LayerState> &states,
                  const nn::SyntheticImageDataset &data,
                  const VariationStudyConfig &cfg)
{
    const nn::DatasetConfig &dc = data.config();
    compile::Graph graph = compile::lowerNetwork(net);
    graph.inferShapes({dc.channels, dc.height, dc.width});
    compile::foldBatchNorm(graph, compile::FoldMode::DigitalScale);
    const Tensor &images = data.test().images;
    const std::vector<int> &labels = data.test().labels;

    VariationStudyResult res;
    RuntimeConfig rc;
    rc.mapping.inputBits = kVariationInputBits;
    rc.engine.cell.variationSigma = 0.0;
    {
        GraphRuntime clean(graph, states, rc);
        PipelineReport report;
        res.cleanAccuracy = clean.accuracy(images, labels, &report);
        res.crossbars = clean.totalCrossbars();
        for (const auto &l : report.nodes.layers)
            res.adcSamples += l.stats.adcSamples;
    }
    rc.engine.cell.variationSigma = cfg.sigma;
    for (int run = 0; run < cfg.runs; ++run) {
        rc.engine.variationSeed = cfg.seed + static_cast<uint64_t>(run);
        GraphRuntime rt(graph, states, rc);
        res.draws.add(rt.accuracy(images, labels));
    }
    return res;
}

std::vector<VariationRow>
runVariationExperiment(NetKind net, const nn::DatasetConfig &data_cfg,
                       const VariationStudyConfig &vcfg,
                       double filter_keep, double shape_keep,
                       int pretrain_epochs, uint64_t seed)
{
    nn::SyntheticImageDataset data(data_cfg);
    admm::AdmmConfig cfg;
    cfg.filterKeep = filter_keep;
    cfg.shapeKeep = shape_keep;
    cfg.xbarDim = 16;
    cfg.fragSize = 8;
    cfg.admmEpochsPerPhase = 2;
    cfg.finetuneEpochs = 2;
    cfg.train.seed = seed + 17;

    // Two phase chains over one deterministic pretraining each. A
    // chain's phases up to a study, then enforceAll(), are exactly
    // AdmmCompressor::run() with those phases enabled, and a study
    // writes no weights, so each variant matches compressing a fresh
    // pretrained net.
    std::vector<VariationRow> rows;
    for (bool prune : {false, true}) {
        auto network = pretrain(net, data, pretrain_epochs, seed).first;
        admm::AdmmCompressor comp(*network, data, cfg);
        auto study = [&](const char *label) {
            comp.enforceAll();
            rows.push_back({label, runVariationStudy(*network, comp.layers(),
                                                     data, vcfg)});
        };
        if (!prune) {
            study("Original Model");
            comp.phasePolarize();
            study("Polarization Only");
        } else {
            comp.phasePrune();
            study("Pruning Only");
            comp.phasePolarize();
            comp.phaseQuantize();
            study("Full Optimization");
        }
    }
    return rows;
}

} // namespace forms::sim
