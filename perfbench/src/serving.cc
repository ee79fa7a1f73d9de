#include "serving.hh"

#include <cmath>
#include <thread>

#include "checks.hh"
#include "common/rng.hh"

namespace perfbench {

using namespace forms;

namespace {

constexpr std::chrono::microseconds kSpin{300};

/** Server settings shared by every served phase. */
serve::ServerConfig
serverConfig()
{
    serve::ServerConfig c;
    c.maxBatch = 4;
    c.maxDelayUs = 400;
    c.queueCapacity = 64;
    return c;
}

} // namespace

Tensor
TimedBackend::run(const Tensor &batch, const uint64_t *ids,
                  std::vector<sim::RuntimeReport> &per_request)
{
    BatchRecord rec;
    rec.images = static_cast<int>(batch.dim(0));
    rec.startNs = nowNs();
    const int slot = spans_.add(
        Span{"serve::Backend::run", "sim", rec.startNs, rec.startNs, -1, 0});
    Tensor out = inner_.run(batch, ids, per_request);
    rec.endNs = nowNs();
    if (slot >= 0)
        spans_.close(slot, rec.endNs);
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(rec);
    return out;
}

std::vector<BatchRecord>
TimedBackend::take()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<BatchRecord> out;
    out.swap(records_);
    return out;
}

PhaseStats
runPhase(TimedBackend &backend, const std::vector<Request> &corpus,
         size_t first, int n, double rate, uint64_t arrivalSeed,
         Spans &spans)
{
    PhaseStats ph;
    ph.sent = n;
    std::vector<int64_t> due(static_cast<size_t>(n));
    std::vector<int64_t> submitted(static_cast<size_t>(n));
    std::vector<std::future<serve::Response>> futs(static_cast<size_t>(n));

    Timed phase(spans, rate > 0 ? "open_loop_phase" : "served_burst",
                "bench");
    ContentionMeter meter;
    {
        serve::Server server(backend, serverConfig());
        Rng arrivals(arrivalSeed);
        const Clock::time_point t0 = Clock::now();
        const int64_t t0_ns = nowNs();
        double clock_s = 0.0;
        for (int i = 0; i < n; ++i) {
            if (rate > 0) {
                clock_s += -std::log(1.0 - arrivals.uniform()) / rate;
                const Clock::time_point when =
                    t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(clock_s));
                // Sleep, then spin the last stretch: a late wake-up of
                // the generator would count as server latency.
                std::this_thread::sleep_until(when - kSpin);
                while (Clock::now() < when) {
                }
            }
            const Request &rq = corpus[(first + static_cast<size_t>(i)) %
                                       corpus.size()];
            const size_t k = static_cast<size_t>(i);
            due[k] = t0_ns + static_cast<int64_t>(clock_s * 1e9);
            submitted[k] = nowNs();
            futs[k] = server.submit(rq.image, rq.id);
        }
        for (int i = 0; i < n; ++i) {
            const size_t k = static_cast<size_t>(i);
            const serve::Response r = futs[k].get();
            const Request &rq = corpus[(first + k) % corpus.size()];
            ph.genLagMs.push_back(static_cast<double>(submitted[k] - due[k]) *
                                  1e-6);
            if (r.status == serve::Status::Rejected) {
                ++ph.shed;
                continue;
            }
            if (r.status != serve::Status::Ok) {
                ++ph.lost;
                continue;
            }
            ++ph.ok;
            if (!sameBits(r.logits, rq.logits) ||
                !sameStats(r.report, rq.report))
                ++ph.mismatched;
            const int64_t dispatched =
                submitted[k] + static_cast<int64_t>(r.queueUs * 1e3);
            const int64_t ready =
                submitted[k] + static_cast<int64_t>(r.totalUs * 1e3);
            ph.latencyMs.push_back(static_cast<double>(ready - due[k]) * 1e-6);
            ph.queueMs.push_back(r.queueUs * 1e-3);
            ph.batchSizes.push_back(r.batchSize);
            const int req = spans.add(Span{"request", "serve", due[k], ready,
                                           phase.index(), rq.id + 1});
            if (req >= 0) {
                spans.add(Span{"queue", "serve", submitted[k], dispatched, req,
                               rq.id + 1});
                // Mirrors the batch's serve::Backend::run span, which
                // carries the compute; not counted again.
                spans.add(Span{"backend", "", dispatched, ready, req,
                               rq.id + 1});
            }
        }
        server.shutdown();
    }
    ph.contention = meter.stop();
    ph.batches = backend.take();

    const size_t q = ph.latencyMs.size() / 4;
    if (q > 0) {
        ph.firstQuarterMedianMs = median(std::vector<double>(
            ph.latencyMs.begin(), ph.latencyMs.begin() + static_cast<long>(q)));
        ph.lastQuarterMedianMs = median(std::vector<double>(
            ph.latencyMs.end() - static_cast<long>(q), ph.latencyMs.end()));
    }
    return ph;
}

void
reportServeLayer(const PhaseStats &ph, Result &res)
{
    std::vector<double> backend_ms;
    for (const BatchRecord &b : ph.batches)
        backend_ms.push_back(static_cast<double>(b.endNs - b.startNs) * 1e-6);
    double images = 0.0;
    for (double b : ph.batchSizes)
        images += b;
    res.set("serve.queue_ms.p50", quantile(ph.queueMs, 0.5), "ms");
    res.set("serve.queue_ms.p99", quantile(ph.queueMs, 0.99), "ms");
    res.set("serve.backend_ms.p50", quantile(backend_ms, 0.5), "ms");
    res.set("serve.backend_ms.p99", quantile(backend_ms, 0.99), "ms");
    res.set("serve.batch_mean",
            ph.batchSizes.empty() ? 0.0
                                  : images / static_cast<double>(ph.batchSizes.size()),
            "count");
    res.set("serve.shed", ph.shed, "count");
    res.set("serve.gen_lag_ms.p99", quantile(ph.genLagMs, 0.99), "ms");
}

} // namespace perfbench
