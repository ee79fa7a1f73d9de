/**
 * @file
 * Shared vocabulary of the crossbar executor: the construction config
 * (RuntimeConfig) and the per-node latency / energy / host-time
 * report (RuntimeReport) of sim::PipelineRuntime
 * (sim/pipeline_runtime.hh) and its single-chip form sim::GraphRuntime
 * (sim/graph_runtime.hh), plus the snapshotCompress() helper that
 * readies a network's weights for mapping without training.
 *
 * A straight-line network runs like any other: lower it with
 * compile::lowerNetwork and execute the graph.
 */

#ifndef FORMS_SIM_RUNTIME_HH
#define FORMS_SIM_RUNTIME_HH

#include <map>
#include <string>

#include "arch/engine.hh"
#include "arch/zero_skip.hh"
#include "nn/network.hh"

namespace forms::compile {
class CalibrationTable;
} // namespace forms::compile

namespace forms::obs {
class MetricsRegistry;
} // namespace forms::obs

namespace forms::sim {

/**
 * Per-stage range observations collected during calibration runs:
 * stage name -> per-presentation pre-quantization abs-max, in
 * presentation order (deterministic for any thread count), plus the
 * stage's fragment-EIC histogram over its quantized presentations
 * (the measured bit-level activity the EicTime work model consumes,
 * docs/SCHEDULING.md). Wired into a runtime through
 * RuntimeConfig::recorder by sim::Calibrator; normal inference leaves
 * it null.
 */
struct RangeRecorder
{
    std::map<std::string, std::vector<float>> maxima;
    std::map<std::string, arch::EicStats> eic;
};

/** Runtime construction knobs. */
struct RuntimeConfig
{
    arch::MappingConfig mapping;  //!< crossbar geometry per layer
    arch::EngineConfig engine;    //!< ADC / device / zero-skip knobs
    ThreadPool *pool = nullptr;   //!< null = ThreadPool::global()

    /**
     * Activation quantization mode (DESIGN.md §2). Static requires a
     * calibrated scale for every programmed stage: either `calibration`
     * below, or (for the graph runtimes) scales attached to the graph
     * via compile::CalibrationTable::attachTo. Construction fatal()s
     * on a programmed stage with neither.
     */
    arch::ScaleMode scaleMode = arch::ScaleMode::PerPresentation;

    /** Static scales, keyed by layer/node name (borrowed, may be null). */
    const compile::CalibrationTable *calibration = nullptr;

    /** Calibration observation sink (borrowed; null in normal runs). */
    RangeRecorder *recorder = nullptr;

    /**
     * Metrics sink (borrowed, may be null). When set, each forward()
     * records its report aggregates through sim/obs_glue.hh — a pure
     * observer: logits and EngineStats are bit-identical with or
     * without it (docs/ARCHITECTURE.md determinism table).
     */
    obs::MetricsRegistry *metrics = nullptr;

    /**
     * Hard-fault model (reram/faults.hh; borrowed, may be null). The
     * executor keys each node's fault pattern by its graph node id,
     * so every chip count, partition and replica of a node draws
     * bit-identical faults. Faults are deterministic
     * state, not noise: the cross-runtime determinism contracts hold
     * under a fault map exactly as they do without one.
     */
    const reram::FaultMap *faults = nullptr;

    /**
     * Run the spare-crossbar remap pass (arch/remap.hh) before
     * programming: tiles whose used cell columns land on a dead
     * physical column are rerouted to spares budgeted by
     * mapping.spareXbars. fatal()s when the budget runs out.
     */
    bool remapFaults = false;
};

/** Per-programmed-layer slice of a runtime report. */
struct RuntimeLayerReport
{
    std::string name;
    arch::EngineStats stats;      //!< merged over the whole batch
    int64_t crossbars = 0;        //!< arrays programmed for this layer
};

/**
 * End-to-end latency / energy / host-time report. One report may span
 * several forward() calls (e.g. a minibatch loop): per-layer stats
 * merge into the same rows, and presentations/wallMs accumulate.
 */
struct RuntimeReport
{
    std::vector<RuntimeLayerReport> layers;
    uint64_t presentations = 0;   //!< MVM presentations issued
    double wallMs = 0.0;          //!< accumulated host wall-clock

    /** Modeled ADC-limited time, layers in sequence (ns). */
    double modelTimeNs() const;

    /** Modeled ADC + crossbar energy (pJ). */
    double modelEnergyPj() const;
};

/**
 * Direct-programming helper for benches and tests: build per-layer
 * compression state (fragment polarization + magnitude quantization,
 * no training and no pruning) for every prunable parameter of `net`,
 * ready to hand to a runtime. The network weights are projected
 * in place, so every tile maps as one crossbar (arch/mapping.hh).
 */
std::vector<admm::LayerState>
snapshotCompress(nn::Network &net, int frag_size, int quant_bits,
                 admm::PolarizationPolicy policy =
                     admm::PolarizationPolicy::CMajor);

} // namespace forms::sim

#endif // FORMS_SIM_RUNTIME_HH
