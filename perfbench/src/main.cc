/**
 * @file
 * formsbench: runs one perfbench workload and prints its record as
 * one JSON object on the last line of standard output.
 *
 *     formsbench --workload <name> --seed <n> --seconds <s>
 *                --trace <0|1> [--spans <path>]
 *
 * The record carries every metric the workload measured (end-to-end
 * metrics from an untraced run, per-layer metrics from a traced one),
 * the check outcome, and the run's contention record (wall time,
 * process CPU time, growth in /proc/stat steal ticks). perfbench/run.py
 * builds this program and reduces the record to the metric set that
 * BENCHMARK.json names.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

constexpr int kPoolThreads = 4;

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "formsbench: %s\nusage: formsbench --workload "
                 "offline_resnet|serve_noisy|pipeline_calibrated --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\n",
                 msg);
    std::exit(2);
}

/** JSON string body: the names and notes here are plain ASCII. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c >= ' ' ? c : ' ';
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string spans_path;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds") {
            opt.seconds = std::atof(v);
            have_seconds = opt.seconds > 0;
        } else if (a == "--trace") {
            opt.trace = std::strcmp(v, "1") == 0;
            have_trace = opt.trace || std::strcmp(v, "0") == 0;
        } else if (a == "--spans") {
            spans_path = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds (> 0) and --trace 0|1 are required");
    void (*run)(const Options &, Spans &, Result &) = nullptr;
    if (opt.workload == "offline_resnet")
        run = runOfflineResnet;
    else if (opt.workload == "serve_noisy")
        run = runServeNoisy;
    else if (opt.workload == "pipeline_calibrated")
        run = runPipelineCalibrated;
    else
        usage("unknown workload");

    // A fixed pool size, never above the machine's core count.
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    const int threads = std::max(1, std::min(kPoolThreads, hw));
    benchPool(threads);

    ContentionMeter whole;
    Spans spans(opt.trace);
    Result res;
    run(opt, spans, res);
    if (opt.trace) {
        spans.mergeLibrarySpans();
        reportSelfTimes(spans, res);
        res.set("fail_frac",
                res.attempted ? static_cast<double>(res.failed) /
                        static_cast<double>(res.attempted)
                              : 1.0,
                "frac");
        if (!spans_path.empty())
            spans.writeJsonLines(spans_path);
    }
    res.set("peak_rss_mb", peakRssMb(), "MB");
    const Contention c = whole.stop();
    res.info["run.wall_s"] = c.wallS;
    res.info["run.cpu_s"] = c.cpuS;
    res.info["run.steal_s"] = c.stealS;
    res.info["threads"] = threads;

    for (const std::string &n : res.notes)
        std::fprintf(stderr, "formsbench: FAILED CHECK: %s\n", n.c_str());

    std::string out = "{\"workload\": " + quoted(opt.workload) +
        ", \"seed\": " + std::to_string(opt.seed) +
        ", \"trace\": " + (opt.trace ? "1" : "0") +
        ", \"correct\": " + (res.correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(res.attempted) +
        ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[name, m] : res.metrics) {
        out += sep + quoted(name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + quoted(m.unit) + "}";
        sep = ", ";
    }
    out += "}, \"info\": {";
    sep = "";
    for (const auto &[name, v] : res.info) {
        out += sep + quoted(name) + ": " + number(v);
        sep = ", ";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
