/**
 * @file
 * Bridges the simulator's aggregate reports into obs::MetricsRegistry.
 *
 * obs/ sits below arch/ and sim/ in the subsystem map (it only knows
 * names and numbers), so the mapping from EngineStats / RuntimeReport
 * / PipelineReport fields onto metric names lives here on the sim
 * side. The executor feeds the registry through this one entry point,
 * which is what makes metrics.json comparable across chip counts — one
 * name means one thing everywhere (docs/OBSERVABILITY.md lists the
 * names).
 *
 * Call once per finished report: uint64 engine totals accumulate as
 * counters (safe across multiple runs into one registry), derived
 * fractions and modeled times land as gauges (last run wins), and
 * per-layer / per-chip distributions land as histograms.
 */

#ifndef FORMS_SIM_OBS_GLUE_HH
#define FORMS_SIM_OBS_GLUE_HH

#include "obs/metrics.hh"
#include "sim/pipeline_runtime.hh"

namespace forms::sim {

/**
 * Record a pipeline report: the per-node rows' merged engine totals
 * under "engine.*", modeled time/energy gauges under "model.*" and
 * per-layer distributions under "layer.*", plus "pipeline.*" schedule
 * gauges and "chip.*" busy/utilization/transfer distributions.
 */
void recordPipelineMetrics(obs::MetricsRegistry &m,
                           const PipelineReport &r);

} // namespace forms::sim

#endif // FORMS_SIM_OBS_GLUE_HH
