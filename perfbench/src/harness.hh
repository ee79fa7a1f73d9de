/**
 * @file
 * Measurement plumbing shared by the perfbench workloads: clocks,
 * process CPU / RSS / steal counters, quantiles, the in-memory span
 * store used by traced runs, and the result record every workload
 * fills in.
 *
 * Everything here observes the program from outside: spans wrap the
 * calls the benchmark makes into the library's public entry points,
 * and nothing here reaches into library internals.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/threadpool.hh"

namespace forms::obs {
class TraceSession;
} // namespace forms::obs

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since an arbitrary process-wide steady epoch. */
int64_t nowNs();

/** Seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/**
 * Linear-interpolation quantile (numpy's default) of `v` at q in
 * [0, 1]; 0 for an empty sample.
 */
double quantile(std::vector<double> v, double q);

/** Median of `v`. */
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/** Wall time, process CPU and steal growth across one phase. */
struct Contention
{
    double wallS = 0.0;
    double cpuS = 0.0;
    double stealS = 0.0;  //!< steal ticks / CLK_TCK, all CPUs summed
};

/** Starts counting at construction; stop() reads the deltas. */
class ContentionMeter
{
  public:
    ContentionMeter();
    Contention stop() const;

  private:
    Clock::time_point wall0_;
    double cpu0_;
    uint64_t steal0_;
};

/** One recorded span (times in nowNs() nanoseconds). */
struct Span
{
    std::string name;
    /** compile, admm, sim, arch, serve or bench; "" = not counted */
    std::string layer;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1;     //!< index into the span list, -1 = root
    uint64_t request = 0;   //!< served request + 1; 0 outside requests
};

/**
 * In-memory span store of one run. A traced run (`traced`) also owns
 * the obs::TraceSession that collects the library's FORMS_TRACE_SCOPE
 * spans. Recording happens only inside a TraceWindow, so untraced runs
 * and the untraced phases of a traced run pay one branch per timed
 * call. add()/close() are thread-safe (the serving decorator records
 * from the batcher thread); windows open and close on one thread.
 */
class Spans
{
  public:
    explicit Spans(bool traced);
    ~Spans();

    Spans(const Spans &) = delete;
    Spans &operator=(const Spans &) = delete;

    bool traced() const { return session_ != nullptr; }
    bool enabled() const { return enabled_; }

    /** Append a span; returns its index (-1 when not recording). */
    int add(Span s);

    /** Set the end time of span `index` (from add()). */
    void close(int index, int64_t endNs);

    /**
     * Merge the library's host spans into the store. Each merged span's
     * parent is the shortest non-request span containing it in time.
     * Call once, after the last window closed.
     */
    void mergeLibrarySpans();

    /**
     * Self time per layer in ms: a span's duration minus the union of
     * its children's intervals, summed over the layer's spans.
     */
    std::map<std::string, double> selfMsByLayer() const;

    /** Write every span as one JSON object per line to `path`. */
    void writeJsonLines(const std::string &path) const;

  private:
    friend class TraceWindow;

    std::unique_ptr<forms::obs::TraceSession> session_;
    int64_t sessionZeroNs_ = 0;   //!< nowNs() at the session's epoch
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;       //!< guards spans_
    std::vector<Span> spans_;
};

/**
 * Scope during which a traced run records: opens span recording and
 * installs the library's trace session. Inert in an untraced run.
 */
class TraceWindow
{
  public:
    explicit TraceWindow(Spans &spans);
    ~TraceWindow();

    TraceWindow(const TraceWindow &) = delete;
    TraceWindow &operator=(const TraceWindow &) = delete;

  private:
    Spans &spans_;
};

/**
 * Times one call into the library: always accumulates its wall time
 * into `*ms` (when non-null); in a traced run also records a span.
 * Nested scopes on one thread parent to the innermost open scope.
 */
class Timed
{
  public:
    Timed(Spans &spans, const char *name, const char *layer,
          double *ms = nullptr, uint64_t request = 0);
    ~Timed();

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    Spans &spans_;
    const char *name_;
    const char *layer_;
    double *ms_;
    uint64_t request_;
    int64_t startNs_;
    int slot_;   //!< index of the reserved span, -1 untraced

  public:
    /** This scope's span index (-1 when not recording). */
    int index() const { return slot_; }
};

/** A metric value and its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload hands back to main(). */
struct Result
{
    bool correct = true;     //!< every output check passed
    int64_t attempted = 0;   //!< operations attempted
    int64_t failed = 0;      //!< failed, shed, requeued or mismatched
    std::map<std::string, Metric> metrics;
    std::map<std::string, double> info;   //!< configuration, contention
    std::vector<std::string> notes;       //!< human-readable failures

    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Record a mismatched output (counts toward `failed`). */
    void fail(const std::string &why);
};

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/**
 * Whether a workload should build its stack once more: once in a
 * traced run; otherwise at least 3 times and, while the setups so far
 * took under 1.5 s, up to 25 times. Before each repeat it pauses so
 * that every setup starts at least 40 ms after the previous one: the
 * host's speed for this single-threaded work changes on a scale of
 * tens of milliseconds, and a millisecond setup repeated back to back
 * would sample only one such phase.
 */
bool moreSetups(const Options &opt, const std::vector<double> &setupS);

/**
 * The benchmark-owned pool every runtime shards on. The first call
 * fixes its size; later calls may pass 0.
 */
forms::ThreadPool &benchPool(int threads = 0);

/**
 * Self time per layer for the per-layer metrics: `<layer>.self_ms` for
 * every layer the benchmark names, 0 for a layer with no span.
 */
void reportSelfTimes(const Spans &spans, Result &res);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
