/**
 * @file
 * Runtime-dispatched SIMD kernels for the simulator's hot paths.
 *
 * Every kernel exists in a scalar variant (the bitwise reference) and,
 * on x86-64, an AVX2 variant. The contract that makes dispatch safe
 * under the DESIGN.md determinism rules: **every variant of a kernel
 * produces bit-identical results**, enforced structurally by two rules
 * (DESIGN.md §6):
 *
 * 1. Elementwise kernels (addF64, axpyF32) only combine each output
 *    element with its own operands — vector width cannot change any
 *    per-element operation order, so any correct vectorization is
 *    bitwise equal to the scalar loop. Multiply-add stays two rounded
 *    operations (no FMA contraction) in every variant.
 * 2. Reduction kernels (dotF32) use a fixed lane-block order that is
 *    part of the kernel's *definition*, not an implementation detail:
 *    kDotLanes = 4 partial accumulators with element i feeding lane
 *    (i % 4) in ascending i, combined as (l0+l2) + (l1+l3). The scalar
 *    reference implements the same tree, so ISAs with narrower or wider
 *    native vectors must emulate the 4-lane shape rather than use their
 *    natural width.
 *
 * One rule picks the variant: Mode::Auto is the best table the running
 * CPU supports (cpuid, decided once per process). An explicit mode is
 * only a per-engine pin (arch::EngineConfig::simdMode) and the tests'
 * handle on the scalar reference.
 */

#ifndef FORMS_COMMON_SIMD_HH
#define FORMS_COMMON_SIMD_HH

#include <cstdint>

namespace forms::simd {

/** Which kernel variant set to run. */
enum class Mode
{
    Auto,    //!< best variant the CPU supports
    Scalar,  //!< portable reference (always available)
    Avx2,    //!< x86-64 AVX2 (cpuid-gated)
};

/** Number of partial accumulators in the canonical reduction tree. */
constexpr int kDotLanes = 4;

/**
 * One variant set of the hot-path kernels. All function pointers are
 * non-null; every variant is bit-identical to the scalar table (the
 * header comment's rules 1–2).
 */
struct Kernels
{
    Mode mode;
    const char *name;

    /** acc[i] += x[i] for i in [0, n). */
    void (*addF64)(double *acc, const double *x, int64_t n);

    /** y[i] += a * x[i] (two roundings, never FMA) for i in [0, n). */
    void (*axpyF32)(float *y, const float *x, float a, int64_t n);

    /**
     * Lane-blocked dot product in double:
     * lane[j] = sum of (double)a[i] * (double)b[i] over i ≡ j (mod 4),
     * returned as (lane0 + lane2) + (lane1 + lane3).
     */
    double (*dotF32)(const float *a, const float *b, int64_t n);
};

/** True when the AVX2 table is compiled in and the CPU supports it. */
bool avx2Supported();

/**
 * Kernel table for a mode. Auto is the best table the CPU supports;
 * Avx2 on a CPU without it falls back to Scalar with a one-time
 * warning. Never null.
 */
const Kernels &kernels(Mode requested = Mode::Auto);

/**
 * Print `tool: dispatch=<table>, build=<type>` and, when the build
 * type is not Release/RelWithDebInfo, a loud warning that the numbers
 * from this binary are not meaningful performance data.
 */
void printBenchBanner(const char *tool);

} // namespace forms::simd

#endif // FORMS_COMMON_SIMD_HH
