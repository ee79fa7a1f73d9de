#include "common/simd.hh"

#include <atomic>
#include <cstring>

#include "common/logging.hh"

namespace forms::simd {

namespace detail {
// Defined in simd_avx2.cc (compiled with -mavx2 when the compiler
// accepts it); returns null when the variant is not compiled in or the
// CPU lacks AVX2.
const Kernels *avx2Table();
} // namespace detail

namespace {

// ---- scalar reference (always available) -----------------------------
//
// These loops are the bitwise definition of each kernel; the vector
// variants must reproduce them exactly (see the header contract).

void
addF64Scalar(double *acc, const double *x, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        acc[i] += x[i];
}

void
axpyF32Scalar(float *y, const float *x, float a, int64_t n)
{
    // Two rounded operations per element; the library is compiled with
    // -ffp-contract=off so no target can fuse them into an FMA.
    for (int64_t i = 0; i < n; ++i)
        y[i] += a * x[i];
}

double
dotF32Scalar(const float *a, const float *b, int64_t n)
{
    // The canonical kDotLanes-block reduction tree (DESIGN.md §6).
    // Each product of two floats is exact in double, so only the
    // addition order matters — and it is fixed here.
    double lane[kDotLanes] = {0.0, 0.0, 0.0, 0.0};
    for (int64_t i = 0; i < n; ++i) {
        lane[i & 3] +=
            static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
    return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

constexpr Kernels kScalarTable = {Mode::Scalar, "scalar", addF64Scalar,
                                  axpyF32Scalar, dotF32Scalar};

const char *
buildTypeName()
{
#if defined(FORMS_BUILD_TYPE)
    return FORMS_BUILD_TYPE;
#else
    return "unknown";
#endif
}

bool
optimizedBuild()
{
    const char *t = buildTypeName();
    return std::strcmp(t, "Release") == 0 ||
        std::strcmp(t, "RelWithDebInfo") == 0;
}

} // namespace

bool
avx2Supported()
{
    return detail::avx2Table() != nullptr;
}

const Kernels &
kernels(Mode requested)
{
    if (requested == Mode::Scalar)
        return kScalarTable;
    if (const Kernels *t = detail::avx2Table())
        return *t;
    if (requested == Mode::Avx2) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            warn("simd: avx2 requested but unavailable on this "
                 "build/CPU — falling back to scalar kernels");
    }
    return kScalarTable;
}

void
printBenchBanner(const char *tool)
{
    // Through the leveled logger: FORMS_LOG=warn silences the banner
    // for scripted runs, while the unoptimized-build warning stays
    // loud at every level short of silence.
    inform("%s: dispatch=%s, build=%s", tool, kernels().name,
           buildTypeName());
    if (!optimizedBuild()) {
        warn("%s: unoptimized build type '%s' — the numbers below are "
             "NOT meaningful performance data; rebuild with "
             "CMAKE_BUILD_TYPE=Release",
             tool, buildTypeName());
    }
}

} // namespace forms::simd
