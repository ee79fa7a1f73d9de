/**
 * @file
 * Regenerates paper Table VI: accuracy degradation under ReRAM device
 * variation (log-normal, mean 0, sigma 0.1, averaged over repeated
 * draws) for four variants of the same network: original,
 * polarization-only, pruning-only and fully optimized.
 *
 * Every variant is compiled and programmed through the crossbar
 * engine (sim::runVariationStudy): variation perturbs the realized
 * cell conductances, inputs are 8-bit and the ADC is lossless, so the
 * degradation is variation's alone. The unpolarized variants map
 * their mixed-sign tiles as dual-crossbar pairs, so the crossbar and
 * ADC-sample columns show the cost polarization removes.
 *
 * Caveat, printed with the table: every node's engine seeds its
 * programming stream from the same variationSeed, so the k-th cell of
 * every layer draws the same log-normal factor. Variation is therefore
 * perfectly correlated across layers, not independent per cell.
 */

#include <cstdio>

#include "common/table.hh"
#include "sim/experiments.hh"

using namespace forms;
using namespace forms::sim;

int
main()
{
    VariationStudyConfig vcfg;
    vcfg.sigma = 0.1;
    vcfg.runs = 3;   // paper averages 50; trimmed for CPU budget

    std::printf("Table VI: accuracy degradation under device variation "
                "(lognormal sigma=%.2f, %d variation draws per variant, "
                "compiled crossbar path, %d-bit inputs, lossless ADC)\n",
                vcfg.sigma, vcfg.runs, kVariationInputBits);
    std::printf("Caveat: every layer's engine draws its cell factors "
                "from the same variationSeed stream, so variation is "
                "correlated across layers (the k-th cell of every layer "
                "gets the same factor), not independent per cell.\n");

    struct Case
    {
        const char *label;
        nn::DatasetConfig data;
        double keep;
        const char *paper;
    };
    std::vector<Case> cases = {
        {"CIFAR-10-like", nn::DatasetConfig::cifar10Like(31), 0.6,
         "0.35 / 0.37 / 1.82 / 1.80 pp"},
        {"CIFAR-100-like", nn::DatasetConfig::cifar100Like(32), 0.6,
         "0.72 / 0.68 / 1.86 / 1.89 pp"},
        {"ImageNet-like", nn::DatasetConfig::imagenetLike(33), 0.7,
         "2.87 / 2.86 / 4.24 / 4.21 pp"},
    };

    for (auto &c : cases) {
        // Enough pretraining that the models learn the task: a model
        // at chance accuracy has no accuracy for variation to degrade.
        c.data.trainPerClass = 16;
        c.data.testPerClass = 4;
        c.data.nonneg = true;   // unsigned bit-serial input encoding
        auto rows = runVariationExperiment(
            NetKind::ResNetSmall, c.data, vcfg, c.keep, c.keep,
            /*pretrain_epochs=*/8, /*seed=*/77);
        const double images = static_cast<double>(
            c.data.classes * c.data.testPerClass);
        Table t({"Variant", "Crossbars", "ADC samples / image",
                 "Clean acc (%)", "Degradation (pp)"});
        for (const auto &r : rows) {
            t.row().cell(r.variant)
                .cell(r.result.crossbars)
                .cell(static_cast<double>(r.result.adcSamples) / images, 0)
                .cell(r.result.cleanAccuracy * 100.0, 1)
                .cell(r.result.degradationPct(), 2);
        }
        t.print(strfmt("ResNet18 (scaled), %s", c.label));
        std::printf("  paper (orig/pol/prune/full): %s\n", c.paper);
    }

    std::printf("\nShape to check: polarization tracks the original "
                "model's robustness at half its crossbars (the original "
                "and pruning-only models need a dual-crossbar pair per "
                "mixed-sign tile); pruning costs extra robustness "
                "because each surviving weight matters more.\n");
    return 0;
}
