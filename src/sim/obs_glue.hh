/**
 * @file
 * Bridges the simulator's aggregate reports into obs::MetricsRegistry.
 *
 * obs/ sits below arch/ and sim/ in the subsystem map (it only knows
 * names and numbers), so the mapping from EngineStats / RuntimeReport
 * / PipelineReport fields onto metric names lives here on the sim
 * side. Both executors feed the registry through these helpers,
 * which is what makes metrics.json comparable across them — one name
 * means one thing everywhere (docs/OBSERVABILITY.md lists the names).
 *
 * Call once per finished report: uint64 engine totals accumulate as
 * counters (safe across multiple runs into one registry), derived
 * fractions and modeled times land as gauges (last run wins), and
 * per-layer / per-chip distributions land as histograms.
 */

#ifndef FORMS_SIM_OBS_GLUE_HH
#define FORMS_SIM_OBS_GLUE_HH

#include <string>

#include "arch/engine.hh"
#include "obs/metrics.hh"
#include "sim/pipeline_runtime.hh"

namespace forms::sim {

/** Accumulate one EngineStats under `prefix`.* counter/gauge names. */
void recordEngineMetrics(obs::MetricsRegistry &m,
                         const arch::EngineStats &s,
                         const std::string &prefix = "engine");

/**
 * Record a single-chip runtime report: merged engine totals under
 * "engine.*", modeled time/energy gauges under "model.*", per-layer
 * distributions under "layer.*".
 */
void recordRuntimeMetrics(obs::MetricsRegistry &m,
                          const RuntimeReport &r);

/**
 * Record a pipeline report: everything recordRuntimeMetrics() emits
 * for the per-node rows, plus "pipeline.*" schedule gauges and
 * "chip.*" busy/utilization/transfer distributions.
 */
void recordPipelineMetrics(obs::MetricsRegistry &m,
                           const PipelineReport &r);

} // namespace forms::sim

#endif // FORMS_SIM_OBS_GLUE_HH
