#include "sim/obs_glue.hh"

namespace forms::sim {

namespace {

/** Accumulate one EngineStats under "engine.*" counter/gauge names. */
void
recordEngineMetrics(obs::MetricsRegistry &m, const arch::EngineStats &s)
{
    m.counterAdd("engine.presentations", s.presentations);
    m.counterAdd("engine.bit_cycles", s.bitCycles);
    m.counterAdd("engine.skipped_cycles", s.skippedCycles);
    m.counterAdd("engine.adc_samples", s.adcSamples);
    m.counterAdd("engine.quant_values", s.quantValues);
    m.counterAdd("engine.quant_clipped", s.quantClipped);
    m.gaugeSet("engine.skip_fraction", s.skipFraction());
    m.gaugeSet("engine.clip_fraction", s.clipFraction());
    m.gaugeSet("engine.adc_energy_pj", s.adcEnergyPj);
    m.gaugeSet("engine.crossbar_energy_pj", s.crossbarEnergyPj);
    m.gaugeSet("engine.time_ns", s.timeNs);
}

/**
 * Record a runtime report: merged engine totals under "engine.*",
 * modeled time/energy gauges under "model.*", per-layer distributions
 * under "layer.*".
 */
void
recordRuntimeMetrics(obs::MetricsRegistry &m, const RuntimeReport &r)
{
    arch::EngineStats total;
    for (const RuntimeLayerReport &layer : r.layers) {
        total.merge(layer.stats);
        m.histObserve("layer.time_ns", layer.stats.timeNs);
        m.histObserve("layer.skip_fraction",
                      layer.stats.skipFraction());
        m.histObserve("layer.clip_fraction",
                      layer.stats.clipFraction());
    }
    recordEngineMetrics(m, total);
    m.gaugeSet("model.time_ns", r.modelTimeNs());
    m.gaugeSet("model.energy_pj", r.modelEnergyPj());
    m.gaugeSet("host.wall_ms", r.wallMs);
}

} // namespace

void
recordPipelineMetrics(obs::MetricsRegistry &m, const PipelineReport &r)
{
    recordRuntimeMetrics(m, r.nodes);
    m.gaugeSet("pipeline.chips", static_cast<double>(r.chips.size()));
    m.gaugeSet("pipeline.stages", static_cast<double>(r.stages));
    m.gaugeSet("pipeline.micro_batches",
               static_cast<double>(r.microBatches));
    m.counterAdd("pipeline.images", static_cast<uint64_t>(r.images));
    m.gaugeSet("pipeline.makespan_ns", r.makespanNs);
    m.gaugeSet("pipeline.bubble_fraction", r.bubbleFraction);
    m.gaugeSet("pipeline.transfer_ns", r.transferNs);
    m.gaugeSet("pipeline.transfer_pj", r.transferPj);
    m.gaugeSet("pipeline.overlap_saved_ns", r.overlapSavedNs);
    m.gaugeSet("pipeline.modeled_fps", r.modeledFps());
    m.gaugeSet("pipeline.faulty_crossbars",
               static_cast<double>(r.faultyCrossbars));
    m.gaugeSet("pipeline.remapped_crossbars",
               static_cast<double>(r.remappedCrossbars));
    for (const ChipReport &c : r.chips) {
        m.histObserve("chip.busy_ns", c.busyNs);
        m.histObserve("chip.utilization", c.utilization);
        m.histObserve("chip.quant_ns", c.quantNs);
        m.histObserve("chip.compute_ns", c.computeNs);
        m.histObserve("chip.transfer_in_ns", c.transferInNs);
        m.histObserve("chip.faulty_crossbars",
                      static_cast<double>(c.faultyCrossbars));
        m.histObserve("chip.remapped_crossbars",
                      static_cast<double>(c.remappedCrossbars));
    }
}

} // namespace forms::sim
