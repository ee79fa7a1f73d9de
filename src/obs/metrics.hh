/**
 * @file
 * Unified metrics registry shared by both executors.
 *
 * Before this existed every aggregate lived in its own struct with
 * its own export path: EngineStats fields surfaced (or didn't)
 * through whichever report a bench happened to print, saturation and
 * zero-skip counters were visible only as derived fractions, and
 * transfer bytes/energy only inside PipelineReport. The registry
 * gives them one namespace and one exportable artifact
 * (metrics.json) so a dashboard or regression script reads every
 * executor through the same keys (docs/OBSERVABILITY.md lists them).
 *
 * Three instrument kinds, all keyed by dot-separated names:
 *   - counters: monotonically accumulated uint64 (exact arithmetic);
 *   - gauges: last-written double (set, not accumulated);
 *   - histograms: count/sum/min/max of observed doubles.
 *
 * Determinism: snapshots iterate name-sorted (std::map), so two
 * registries fed the same values serialize byte-identically. The
 * executors feed the registry from already-deterministic aggregates
 * (EngineStats, PipelineReport) *after* parallel execution, on one
 * thread — so metrics.json is bit-identical across thread counts for
 * the same run, which tests/test_obs.cc pins. The registry itself is
 * still mutex-guarded so concurrent counterAdd() is safe where it is
 * convenient.
 */

#ifndef FORMS_OBS_METRICS_HH
#define FORMS_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json_writer.hh"

namespace forms::obs {

/** Aggregate of one histogram's observations. */
struct HistogramStats
{
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  //!< meaningful only when count > 0
    double max = 0.0;

    void observe(double v);
};

/** Counters / gauges / histograms with deterministic snapshots. */
class MetricsRegistry
{
  public:
    /** Accumulate `delta` onto counter `name` (created at 0). */
    void counterAdd(const std::string &name, uint64_t delta);

    /** Set gauge `name` to `v` (last write wins). */
    void gaugeSet(const std::string &name, double v);

    /** Add one observation to histogram `name`. */
    void histObserve(const std::string &name, double v);

    /** Name-sorted copy of the registry's current state. */
    struct Snapshot
    {
        std::vector<std::pair<std::string, uint64_t>> counters;
        std::vector<std::pair<std::string, double>> gauges;
        std::vector<std::pair<std::string, HistogramStats>> histograms;
    };
    Snapshot snapshot() const;

    /**
     * Emit one JSON object value: {"counters": {...}, "gauges":
     * {...}, "histograms": {name: {count, sum, min, max}}}. Members
     * are name-sorted — byte-identical for equal contents.
     */
    void writeJson(JsonWriter &w) const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, HistogramStats> histograms_;
};

} // namespace forms::obs

#endif // FORMS_OBS_METRICS_HH
