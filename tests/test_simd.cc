/**
 * @file
 * The dispatch layer's own contract (common/simd.hh): every compiled
 * kernel table is bit-identical to the scalar reference on every tail
 * residue, the dot reduction tree is the canonical kDotLanes shape,
 * and Mode::Auto is the best table the CPU supports.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"

namespace forms {
namespace {

/** Every table this CPU can run (scalar always; AVX2 when supported). */
std::vector<const simd::Kernels *>
allTables()
{
    std::vector<const simd::Kernels *> tables = {
        &simd::kernels(simd::Mode::Scalar)};
    if (simd::avx2Supported())
        tables.push_back(&simd::kernels(simd::Mode::Avx2));
    return tables;
}

TEST(Simd, TablesAreFullyPopulated)
{
    for (const simd::Kernels *t : allTables()) {
        ASSERT_NE(t, nullptr);
        EXPECT_NE(t->name, nullptr);
        EXPECT_NE(t->addF64, nullptr);
        EXPECT_NE(t->axpyF32, nullptr);
        EXPECT_NE(t->dotF32, nullptr);
    }
}

TEST(Simd, AutoIsTheBestTableTheCpuSupports)
{
    EXPECT_EQ(simd::kernels(simd::Mode::Scalar).mode, simd::Mode::Scalar);
    EXPECT_EQ(simd::kernels().mode, simd::avx2Supported()
                                        ? simd::Mode::Avx2
                                        : simd::Mode::Scalar);
    // An explicit request for an absent ISA degrades to scalar rather
    // than crashing or returning a null table.
    if (!simd::avx2Supported())
        EXPECT_EQ(simd::kernels(simd::Mode::Avx2).mode,
                  simd::Mode::Scalar);
}

/**
 * Bit-identity on every tail residue: sizes 0..2*vector-width+3 catch
 * off-by-one lane handling, a large odd size catches main-loop bugs.
 */
TEST(Simd, VariantsMatchScalarBitwiseOnAllTails)
{
    const simd::Kernels &ref = simd::kernels(simd::Mode::Scalar);
    std::vector<int64_t> sizes;
    for (int64_t n = 0; n <= 19; ++n)
        sizes.push_back(n);
    sizes.push_back(1021);

    Rng rng(77);
    const int64_t cap = 1024;
    std::vector<double> d_base(cap), d_x(cap);
    std::vector<float> f_base(cap), f_x(cap);
    for (int64_t i = 0; i < cap; ++i) {
        d_base[i] = rng.gaussian(0.0, 1.0);
        d_x[i] = rng.gaussian(0.0, 1.0);
        f_base[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
        f_x[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
    }

    for (const simd::Kernels *t : allTables()) {
        if (t == &ref)
            continue;
        SCOPED_TRACE(t->name);
        for (int64_t n : sizes) {
            SCOPED_TRACE("n=" + std::to_string(n));

            std::vector<double> want = d_base, got = d_base;
            ref.addF64(want.data(), d_x.data(), n);
            t->addF64(got.data(), d_x.data(), n);
            EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                     sizeof(double) * cap));

            std::vector<float> fwant = f_base, fgot = f_base;
            ref.axpyF32(fwant.data(), f_x.data(), 1.618f, n);
            t->axpyF32(fgot.data(), f_x.data(), 1.618f, n);
            EXPECT_EQ(0, std::memcmp(fwant.data(), fgot.data(),
                                     sizeof(float) * cap));

            const double dwant = ref.dotF32(f_base.data(), f_x.data(), n);
            const double dgot = t->dotF32(f_base.data(), f_x.data(), n);
            EXPECT_EQ(0, std::memcmp(&dwant, &dgot, sizeof(double)));
        }
    }
}

/** The scalar dot is the canonical lane tree, not plain accumulation. */
TEST(Simd, DotImplementsCanonicalLaneTree)
{
    Rng rng(78);
    const int64_t n = 4 * 9 + 3;   // ragged tail
    std::vector<float> a(static_cast<size_t>(n)), b(a.size());
    for (auto &v : a)
        v = static_cast<float>(rng.gaussian(0.0, 1.0));
    for (auto &v : b)
        v = static_cast<float>(rng.gaussian(0.0, 1.0));

    double lane[simd::kDotLanes] = {0.0, 0.0, 0.0, 0.0};
    for (int64_t i = 0; i < n; ++i) {
        lane[i % simd::kDotLanes] +=
            static_cast<double>(a[static_cast<size_t>(i)]) *
            static_cast<double>(b[static_cast<size_t>(i)]);
    }
    const double want = (lane[0] + lane[2]) + (lane[1] + lane[3]);
    for (const simd::Kernels *t : allTables()) {
        SCOPED_TRACE(t->name);
        const double got = t->dotF32(a.data(), b.data(), n);
        EXPECT_EQ(0, std::memcmp(&want, &got, sizeof(double)));
    }
}

} // namespace
} // namespace forms
