/**
 * @file
 * The three perfbench workloads. Each builds its stack from scratch
 * (timing every library call it makes), drives it for the requested
 * number of seconds, checks every output, and fills a Result with
 * the end-to-end metrics (untraced run) or the per-layer metrics
 * (traced run). BENCHMARK.json at the repository root records why
 * each workload exists and which metric each layer should move.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "harness.hh"

namespace perfbench {

/** resnet_small, 4-bit ADC, closed loop of 16-image calls. */
void runOfflineResnet(const Options &opt, Spans &spans, Result &res);

/** Small conv net under ADC/variation/read noise, served open-loop. */
void runServeNoisy(const Options &opt, Spans &spans, Result &res);

/** resnet_small calibrated, faulted and pipelined over 4 chips. */
void runPipelineCalibrated(const Options &opt, Spans &spans, Result &res);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
