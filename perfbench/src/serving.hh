/**
 * @file
 * Serving-side measurement: a timing Backend decorator, the open-loop
 * Poisson generator, and the served-burst probe the resnet workloads
 * use to measure the serve layer over their own runtimes.
 */

#ifndef PERFBENCH_SERVING_HH
#define PERFBENCH_SERVING_HH

#include <mutex>
#include <vector>

#include "harness.hh"
#include "serve/server.hh"

namespace perfbench {

/** One backend run as the decorator saw it. */
struct BatchRecord
{
    int64_t startNs = 0;
    int64_t endNs = 0;
    int images = 0;
};

/**
 * Backend decorator: times every run() of the wrapped backend and, in
 * a traced run, records it as a sim-layer span (the library's own
 * spans nest under it).
 */
class TimedBackend : public forms::serve::Backend
{
  public:
    TimedBackend(forms::serve::Backend &inner, Spans &spans)
        : inner_(inner), spans_(spans) {}

    forms::Tensor run(const forms::Tensor &batch, const uint64_t *ids,
                      std::vector<forms::sim::RuntimeReport> &per_request)
        override;

    /** Hand over (and clear) the records collected so far. */
    std::vector<BatchRecord> take();

  private:
    forms::serve::Backend &inner_;
    Spans &spans_;
    std::mutex mu_;   //!< guards records_
    std::vector<BatchRecord> records_;
};

/** A request the generator may send: image, id and its reference. */
struct Request
{
    forms::Tensor image;   //!< one sample (CHW)
    uint64_t id = 0;
    forms::Tensor logits;  //!< expected flat logits
    forms::sim::RuntimeReport report;   //!< expected per-request stats
};

/** Per-request and per-batch measurements of one open-loop phase. */
struct PhaseStats
{
    int sent = 0;
    int ok = 0;
    int shed = 0;          //!< rejected at admission
    int lost = 0;          //!< requeued out of budget or shut down
    int mismatched = 0;    //!< Ok but not bitwise equal to the reference
    std::vector<double> latencyMs;   //!< due -> ready, Ok requests
    std::vector<double> queueMs;     //!< Response::queueUs
    std::vector<double> genLagMs;    //!< submit - due
    std::vector<double> batchSizes;  //!< per Ok request
    std::vector<BatchRecord> batches;
    Contention contention;
    double firstQuarterMedianMs = 0.0;
    double lastQuarterMedianMs = 0.0;
};

/**
 * Send `n` requests drawn cyclically from `corpus` (starting at
 * `first`) at Poisson arrivals of `rate` per second (drawn from
 * `arrivalSeed`) from this thread,
 * through a fresh Server over `backend`. `rate` <= 0 sends them all
 * at once (a burst). Every Ok response is checked bitwise against its
 * reference. In a traced run each request gets a span from its due
 * time until its response is ready, with queue and backend children.
 */
PhaseStats runPhase(TimedBackend &backend, const std::vector<Request> &corpus,
                    size_t first, int n, double rate,
                    uint64_t arrivalSeed, Spans &spans);

/** Write the serve.* per-layer metrics of `ph` into `res`. */
void reportServeLayer(const PhaseStats &ph, Result &res);

} // namespace perfbench

#endif // PERFBENCH_SERVING_HH
