/**
 * @file
 * AVX2 variants of the dispatch kernels. This translation unit is the
 * only one compiled with -mavx2 (CMake sets it per-source whenever the
 * compiler accepts the flag); everything else must keep calling
 * through the dispatch table so a non-AVX2 machine never executes these
 * instructions. When the compiler flag is absent (a non-x86 target) the
 * file degrades to a null table and the scalar definitions run.
 */

#include "common/simd.hh"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace forms::simd {
namespace detail {

#if defined(__AVX2__)

namespace {

void
addF64Avx2(double *acc, const double *x, int64_t n)
{
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d va = _mm256_loadu_pd(acc + i);
        const __m256d vx = _mm256_loadu_pd(x + i);
        _mm256_storeu_pd(acc + i, _mm256_add_pd(va, vx));
    }
    for (; i < n; ++i)
        acc[i] += x[i];
}

void
axpyF32Avx2(float *y, const float *x, float a, int64_t n)
{
    // _mm256_mul_ps + _mm256_add_ps, never _mm256_fmadd_ps: the fused
    // form rounds once and would diverge from the scalar reference.
    const __m256 va = _mm256_set1_ps(a);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
        _mm256_storeu_ps(y + i,
                         _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
    }
    for (; i < n; ++i)
        y[i] += a * x[i];
}

double
dotF32Avx2(const float *a, const float *b, int64_t n)
{
    // One 4-wide double accumulator: pd lane j receives elements with
    // i % 4 == j, exactly the canonical tree (DESIGN.md §6).
    __m256d acc = _mm256_setzero_pd();
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d va = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
        const __m256d vb = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
    }
    alignas(32) double lane[kDotLanes];
    _mm256_store_pd(lane, acc);
    for (; i < n; ++i) {
        lane[i & 3] +=
            static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
    return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

constexpr Kernels kAvx2Table = {Mode::Avx2, "avx2", addF64Avx2,
                                axpyF32Avx2, dotF32Avx2};

} // namespace

const Kernels *
avx2Table()
{
    // Compile-time support is not runtime support: gate on cpuid so a
    // binary built on an AVX2 host still runs (scalar) anywhere.
    static const bool supported = __builtin_cpu_supports("avx2");
    return supported ? &kAvx2Table : nullptr;
}

#else // !__AVX2__

const Kernels *
avx2Table()
{
    return nullptr;
}

#endif

} // namespace detail
} // namespace forms::simd
