/**
 * @file
 * Run provenance stamped into every machine-readable bench artifact.
 *
 * A BENCH_*.json without a manifest is a number with no pedigree: the
 * perf trajectory cannot be tracked across machines or commits when
 * the file does not say which git sha, build type, SIMD dispatch mode
 * and thread count produced it. RunManifest::collect() captures that
 * environment once; benches append their own knobs (seeds, schedule
 * config, sweep parameters) as ordered key/value pairs; and
 * writeBenchHeader() stamps `schema_version` + `manifest` as the
 * first members of the artifact's top-level object, where
 * scripts/check_bench_schema.py validates them in CI.
 *
 * The git sha resolves, in order: the FORMS_GIT_SHA environment
 * variable (for packaged or cross-built runs), the FORMS_GIT_SHA
 * macro from the *build-time*-generated forms_git_sha.hh header
 * (cmake/git_sha.cmake re-stamps it on every build, so rebuilt
 * binaries never report a stale configure-time sha), then "unknown".
 * `schema_version` (kBenchSchemaVersion) bumps whenever the manifest
 * layout or a bench's required keys change shape.
 */

#ifndef FORMS_OBS_RUN_MANIFEST_HH
#define FORMS_OBS_RUN_MANIFEST_HH

#include <string>
#include <utility>
#include <vector>

#include "obs/json_writer.hh"

namespace forms::obs {

/** Bench-artifact schema version (see scripts/check_bench_schema.py). */
constexpr int kBenchSchemaVersion = 1;

/** Provenance of one bench/tool run. */
struct RunManifest
{
    std::string bench;         //!< emitting tool, e.g. "fig15_multichip"
    std::string gitSha;        //!< env > build-time capture > "unknown"
    std::string build;         //!< CMAKE_BUILD_TYPE of the binary
    std::string simdDispatch;  //!< kernel table cpuid picked (Mode::Auto)
    int threads = 0;           //!< process-wide ThreadPool width

    /**
     * Bench-specific knobs (seeds, schedule config, sweep axes), in
     * insertion order. Values are stored as strings; set() renders
     * numbers with the same round-trip-safe formats JsonWriter uses.
     */
    std::vector<std::pair<std::string, std::string>> config;

    /** Capture the process environment for tool `bench`. */
    static RunManifest collect(const std::string &bench);

    RunManifest &set(const std::string &key, const std::string &v);
    RunManifest &set(const std::string &key, const char *v);
    RunManifest &set(const std::string &key, int64_t v);
    RunManifest &set(const std::string &key, int v);
    RunManifest &set(const std::string &key, double v);

    /** Emit the manifest as one JSON object value. */
    void writeJson(JsonWriter &w) const;
};

/**
 * Stamp `schema_version` and `manifest` members into the (already
 * begun) top-level object of a bench artifact. Call right after
 * beginObject(), before the bench's own members.
 */
void writeBenchHeader(JsonWriter &w, const RunManifest &m);

} // namespace forms::obs

#endif // FORMS_OBS_RUN_MANIFEST_HH
