/**
 * @file
 * Unit tests for the tensor substrate: shape bookkeeping, elementwise
 * helpers, GEMM variants against naive references, im2col/col2im
 * consistency, pooling forward/backward.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/simd.hh"
#include "tensor/ops.hh"

namespace forms {
namespace {

TEST(Tensor, ShapeAndNumel)
{
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.rank(), 3);
    EXPECT_EQ(t.numel(), 24);
    EXPECT_EQ(t.dim(0), 2);
    EXPECT_EQ(t.dim(-1), 4);
}

TEST(Tensor, FillAndSum)
{
    Tensor t({5, 5}, 2.0f);
    EXPECT_DOUBLE_EQ(t.sum(), 50.0);
    t.fill(0.0f);
    EXPECT_DOUBLE_EQ(t.sum(), 0.0);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t({2, 6});
    for (int64_t i = 0; i < 12; ++i)
        t.at(i) = static_cast<float>(i);
    Tensor r = t.reshaped({3, 4});
    EXPECT_EQ(r.dim(0), 3);
    EXPECT_FLOAT_EQ(r.at(2, 3), 11.0f);
}

TEST(Tensor, AxpyAndScale)
{
    Tensor a({4}, 1.0f), b({4}, 2.0f);
    a.axpy(3.0f, b);
    EXPECT_FLOAT_EQ(a.at(0), 7.0f);
    a.scale(0.5f);
    EXPECT_FLOAT_EQ(a.at(3), 3.5f);
}

TEST(Tensor, MaxAbsAndZeros)
{
    Tensor t({4}, 0.0f);
    t.at(2) = -5.0f;
    EXPECT_FLOAT_EQ(t.maxAbs(), 5.0f);
    EXPECT_EQ(t.countZeros(), 3);
}

TEST(Tensor, GaussianFillStatistics)
{
    Rng rng(3);
    Tensor t({10000});
    t.fillGaussian(rng, 1.0f, 2.0f);
    EXPECT_NEAR(t.sum() / 10000.0, 1.0, 0.1);
}

TEST(Ops, MatmulMatchesNaive)
{
    Rng rng(5);
    Tensor a({7, 5}), b({5, 9});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    Tensor c = matmul(a, b);
    for (int64_t i = 0; i < 7; ++i)
        for (int64_t j = 0; j < 9; ++j) {
            double acc = 0.0;
            for (int64_t k = 0; k < 5; ++k)
                acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
            EXPECT_NEAR(c.at(i, j), acc, 1e-4);
        }
}

TEST(Ops, MatmulTransposeVariantsAgree)
{
    Rng rng(6);
    Tensor a({4, 6}), b({6, 3});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    Tensor ref = matmul(a, b);
    Tensor viaTB = matmulTransposeB(a, transpose(b));
    Tensor viaTA = matmulTransposeA(transpose(a), b);
    for (int64_t i = 0; i < ref.numel(); ++i) {
        EXPECT_NEAR(viaTB.at(i), ref.at(i), 1e-4);
        EXPECT_NEAR(viaTA.at(i), ref.at(i), 1e-4);
    }
}

/** Same shape and the same bits in every element. */
bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
        std::memcmp(a.data(), b.data(),
                    sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

/** im2col by its index definition, one element at a time. */
Tensor
naiveIm2col(const Tensor &in, int kh, int kw, int stride, int pad)
{
    const int64_t n = in.dim(0), c = in.dim(1);
    const int h = static_cast<int>(in.dim(2));
    const int w = static_cast<int>(in.dim(3));
    const int oh = convOutDim(h, kh, stride, pad);
    const int ow = convOutDim(w, kw, stride, pad);
    Tensor out({c * kh * kw, n * oh * ow});
    for (int64_t img = 0; img < n; ++img)
        for (int64_t ch = 0; ch < c; ++ch)
            for (int ky = 0; ky < kh; ++ky)
                for (int kx = 0; kx < kw; ++kx)
                    for (int oy = 0; oy < oh; ++oy)
                        for (int ox = 0; ox < ow; ++ox) {
                            const int iy = oy * stride - pad + ky;
                            const int ix = ox * stride - pad + kx;
                            out.at((ch * kh + ky) * kw + kx,
                                   (img * oh + oy) * ow + ox) =
                                iy >= 0 && iy < h && ix >= 0 && ix < w
                                ? in.at(img, ch, iy, ix)
                                : 0.0f;
                        }
    return out;
}

/**
 * The dispatched matmul family and both im2col paths are bit-identical
 * to reference loops on deliberately ragged shapes (dimensions coprime
 * to every vector width, so the vector main loops always leave tails).
 * The matmul references call the scalar kernel table in the library's
 * row and l order, so on an AVX2 CPU this pins the dispatched variant
 * against the scalar definition.
 */
TEST(Ops, DispatchModesAreBitIdenticalOnRaggedShapes)
{
    Rng rng(12);
    // k = 23 and n = 13 are the reduction / row extents the SIMD
    // paths block by 4 and 8; neither divides evenly.
    Tensor a({5, 23}), b({23, 13}), bt({13, 23});
    Tensor img({2, 3, 9, 7});
    a.fillGaussian(rng, 0.0f, 1.0f);
    b.fillGaussian(rng, 0.0f, 1.0f);
    bt.fillGaussian(rng, 0.0f, 1.0f);
    img.fillUniform(rng, -1.0f, 1.0f);
    a.at(1, 4) = 0.0f;   // the axpy loops skip zero multipliers
    const simd::Kernels &sk = simd::kernels(simd::Mode::Scalar);
    const int64_t m = 5, k = 23, n = 13;

    Tensor mm_ref({m, n});
    for (int64_t i = 0; i < m; ++i)
        for (int64_t l = 0; l < k; ++l)
            if (a.at(i, l) != 0.0f)
                sk.axpyF32(mm_ref.data() + i * n, b.data() + l * n,
                           a.at(i, l), n);
    EXPECT_TRUE(bitEqual(matmul(a, b), mm_ref));

    Tensor mt_ref({m, n});
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j)
            mt_ref.at(i, j) = static_cast<float>(
                sk.dotF32(a.data() + i * k, bt.data() + j * k, k));
    EXPECT_TRUE(bitEqual(matmulTransposeB(a, bt), mt_ref));

    // matmulTransposeA(aT, b) with aT = {k, m}: output row l gathers
    // column l of aT in ascending i.
    const Tensor at = transpose(a);
    Tensor ta_ref({m, n});
    for (int64_t l = 0; l < m; ++l)
        for (int64_t i = 0; i < k; ++i)
            if (at.at(i, l) != 0.0f)
                sk.axpyF32(ta_ref.data() + l * n, b.data() + i * n,
                           at.at(i, l), n);
    EXPECT_TRUE(bitEqual(matmulTransposeA(at, b), ta_ref));

    EXPECT_TRUE(bitEqual(im2col(img, 3, 3, 1, 1),
                         naiveIm2col(img, 3, 3, 1, 1)));
    EXPECT_TRUE(bitEqual(im2col(img, 2, 2, 2, 0),    // strided path
                         naiveIm2col(img, 2, 2, 2, 0)));
}

/** im2colInto reuses caller storage without changing the result. */
TEST(Ops, Im2colIntoReusedScratchMatchesFreshAllocation)
{
    Rng rng(13);
    Tensor big({2, 3, 8, 8}), small({1, 3, 5, 5});
    big.fillGaussian(rng, 0.0f, 1.0f);
    small.fillGaussian(rng, 0.0f, 1.0f);

    Tensor scratch;
    im2colInto(big, 3, 3, 1, 1, scratch);
    EXPECT_TRUE(scratch.equals(im2col(big, 3, 3, 1, 1)));
    // Shrinking reuse: stale tail data from the larger lowering must
    // not leak into the smaller one.
    im2colInto(small, 3, 3, 1, 1, scratch);
    EXPECT_TRUE(scratch.equals(im2col(small, 3, 3, 1, 1)));
    // And growing again reallocates correctly.
    im2colInto(big, 3, 3, 2, 0, scratch);
    EXPECT_TRUE(scratch.equals(im2col(big, 3, 3, 2, 0)));
}

TEST(Ops, TransposeRoundTrip)
{
    Rng rng(8);
    Tensor a({3, 5});
    a.fillGaussian(rng, 0.0f, 1.0f);
    EXPECT_TRUE(transpose(transpose(a)).equals(a));
}

TEST(Ops, ConvOutDim)
{
    EXPECT_EQ(convOutDim(32, 3, 1, 1), 32);
    EXPECT_EQ(convOutDim(28, 5, 1, 0), 24);
    EXPECT_EQ(convOutDim(32, 3, 2, 1), 16);
}

TEST(Ops, Im2colConvMatchesDirect)
{
    // conv as wmat * im2col must equal the naive sliding window.
    Rng rng(9);
    const int n = 2, c = 3, h = 6, w = 6, f = 4, k = 3, stride = 1,
        pad = 1;
    Tensor input({n, c, h, w}), weight({f, c, k, k});
    input.fillGaussian(rng, 0.0f, 1.0f);
    weight.fillGaussian(rng, 0.0f, 1.0f);

    Tensor cols = im2col(input, k, k, stride, pad);
    Tensor prod = matmul(weight.reshaped({f, c * k * k}), cols);

    const int oh = convOutDim(h, k, stride, pad);
    const int ow = convOutDim(w, k, stride, pad);
    for (int img = 0; img < n; ++img)
        for (int fo = 0; fo < f; ++fo)
            for (int oy = 0; oy < oh; ++oy)
                for (int ox = 0; ox < ow; ++ox) {
                    double acc = 0.0;
                    for (int ch = 0; ch < c; ++ch)
                        for (int ky = 0; ky < k; ++ky)
                            for (int kx = 0; kx < k; ++kx) {
                                const int iy = oy * stride - pad + ky;
                                const int ix = ox * stride - pad + kx;
                                if (iy < 0 || iy >= h || ix < 0 ||
                                    ix >= w)
                                    continue;
                                acc += static_cast<double>(
                                    weight.at(fo, ch, ky, kx)) *
                                    input.at(img, ch, iy, ix);
                            }
                    const int64_t col = (img * oh + oy) * ow + ox;
                    EXPECT_NEAR(prod.at(fo, col), acc, 1e-4);
                }
}

TEST(Ops, Col2imIsAdjointOfIm2col)
{
    // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property
    // that conv backward relies on.
    Rng rng(10);
    const Shape in_shape{1, 2, 5, 5};
    Tensor x(in_shape);
    x.fillGaussian(rng, 0.0f, 1.0f);
    Tensor cx = im2col(x, 3, 3, 2, 1);
    Tensor y(cx.shape());
    y.fillGaussian(rng, 0.0f, 1.0f);
    Tensor ay = col2im(y, in_shape, 3, 3, 2, 1);

    double lhs = 0.0, rhs = 0.0;
    for (int64_t i = 0; i < cx.numel(); ++i)
        lhs += static_cast<double>(cx.at(i)) * y.at(i);
    for (int64_t i = 0; i < x.numel(); ++i)
        rhs += static_cast<double>(x.at(i)) * ay.at(i);
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Ops, ReluAndGrad)
{
    Tensor x({4});
    x.at(0) = -1.0f; x.at(1) = 0.0f; x.at(2) = 2.0f; x.at(3) = -0.5f;
    Tensor y = relu(x);
    EXPECT_FLOAT_EQ(y.at(0), 0.0f);
    EXPECT_FLOAT_EQ(y.at(2), 2.0f);
    Tensor g({4}, 1.0f);
    Tensor gx = reluGrad(x, g);
    EXPECT_FLOAT_EQ(gx.at(0), 0.0f);
    EXPECT_FLOAT_EQ(gx.at(2), 1.0f);
}

TEST(Ops, SoftmaxRowsNormalized)
{
    Rng rng(11);
    Tensor logits({3, 7});
    logits.fillGaussian(rng, 0.0f, 3.0f);
    Tensor p = softmaxRows(logits);
    for (int64_t i = 0; i < 3; ++i) {
        double row = 0.0;
        for (int64_t j = 0; j < 7; ++j) {
            EXPECT_GE(p.at(i, j), 0.0f);
            row += p.at(i, j);
        }
        EXPECT_NEAR(row, 1.0, 1e-5);
    }
}

TEST(Ops, MaxPoolForwardAndBackward)
{
    Tensor x({1, 1, 4, 4});
    for (int64_t i = 0; i < 16; ++i)
        x.at(i) = static_cast<float>(i);
    Tensor argmax;
    Tensor y = maxPool2d(x, 2, 2, &argmax);
    EXPECT_EQ(y.dim(2), 2);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 5.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 15.0f);

    Tensor g({1, 1, 2, 2}, 1.0f);
    Tensor gx = maxPool2dBackward(g, argmax, x.shape());
    EXPECT_FLOAT_EQ(gx.at(0, 0, 1, 1), 1.0f);   // index 5
    EXPECT_FLOAT_EQ(gx.at(0, 0, 0, 0), 0.0f);
    EXPECT_DOUBLE_EQ(gx.sum(), 4.0);
}

TEST(Ops, AvgPoolForwardBackward)
{
    Tensor x({1, 1, 4, 4}, 2.0f);
    Tensor y = avgPool2d(x, 2, 2);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 2.0f);
    Tensor g({1, 1, 2, 2}, 1.0f);
    Tensor gx = avgPool2dBackward(g, x.shape(), 2, 2);
    EXPECT_FLOAT_EQ(gx.at(0, 0, 0, 0), 0.25f);
    EXPECT_NEAR(gx.sum(), 4.0, 1e-6);
}

} // namespace
} // namespace forms
