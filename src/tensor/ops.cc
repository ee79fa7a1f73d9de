#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/simd.hh"
#include "common/threadpool.hh"

namespace forms {

namespace {

/**
 * Chunk size putting ~32k elements of inner work in each task, so
 * small tensors stay on the calling thread (a one-chunk parallelFor
 * runs inline) and large ones shard across the pool. Every kernel
 * below parallelizes over an axis whose slices are written disjointly
 * and whose per-element accumulation order is unchanged, so results
 * are bit-identical to the serial loops for any thread count.
 */
int64_t
grainFor(int64_t per_item_work)
{
    constexpr int64_t chunk_work = int64_t(1) << 15;
    return std::max<int64_t>(
        1, chunk_work / std::max<int64_t>(1, per_item_work));
}

} // namespace

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    FORMS_ASSERT(a.rank() == 2 && b.rank() == 2, "matmul needs rank-2");
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    FORMS_ASSERT(b.dim(0) == k, "matmul inner dim mismatch %lld vs %lld",
                 static_cast<long long>(a.dim(1)),
                 static_cast<long long>(b.dim(0)));
    Tensor c({m, n});
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    const simd::Kernels &kern = simd::kernels();
    parallelFor(0, m, grainFor(k * n), [&](int64_t i, int) {
        for (int64_t l = 0; l < k; ++l) {
            const float av = pa[i * k + l];
            if (av == 0.0f)
                continue;
            kern.axpyF32(pc + i * n, pb + l * n, av, n);
        }
    });
    return c;
}

Tensor
matmulTransposeB(const Tensor &a, const Tensor &b_t)
{
    FORMS_ASSERT(a.rank() == 2 && b_t.rank() == 2, "matmulT needs rank-2");
    const int64_t m = a.dim(0), k = a.dim(1), n = b_t.dim(0);
    FORMS_ASSERT(b_t.dim(1) == k, "matmulTransposeB inner dim mismatch");
    Tensor c({m, n});
    const float *pa = a.data();
    const float *pb = b_t.data();
    float *pc = c.data();
    // dotF32's lane-blocked reduction tree (common/simd.hh) is the
    // kernel's definition, so every dispatch mode produces the same
    // bits here.
    const simd::Kernels &kern = simd::kernels();
    parallelFor(0, m, grainFor(k * n), [&](int64_t i, int) {
        for (int64_t j = 0; j < n; ++j) {
            pc[i * n + j] = static_cast<float>(
                kern.dotF32(pa + i * k, pb + j * k, k));
        }
    });
    return c;
}

Tensor
matmulTransposeA(const Tensor &a, const Tensor &b)
{
    FORMS_ASSERT(a.rank() == 2 && b.rank() == 2, "matmulTA needs rank-2");
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    FORMS_ASSERT(b.dim(0) == m, "matmulTransposeA outer dim mismatch");
    Tensor c({k, n});
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    // Sharded over output rows l (not the reduction axis i) so each
    // C row is owned by one task and the i-order accumulation per
    // (l, j) matches the serial loop exactly.
    const simd::Kernels &kern = simd::kernels();
    parallelFor(0, k, grainFor(m * n), [&](int64_t l, int) {
        float *crow = pc + l * n;
        for (int64_t i = 0; i < m; ++i) {
            const float av = pa[i * k + l];
            if (av == 0.0f)
                continue;
            kern.axpyF32(crow, pb + i * n, av, n);
        }
    });
    return c;
}

Tensor
transpose(const Tensor &a)
{
    FORMS_ASSERT(a.rank() == 2, "transpose needs rank-2");
    const int64_t m = a.dim(0), n = a.dim(1);
    Tensor t({n, m});
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j)
            t.at(j, i) = a.at(i, j);
    return t;
}

int
convOutDim(int in, int k, int stride, int pad)
{
    const int out = (in + 2 * pad - k) / stride + 1;
    FORMS_ASSERT(out > 0, "conv output dimension collapsed to zero");
    return out;
}

void
im2colInto(const Tensor &input, int kh, int kw, int stride, int pad,
           Tensor &out)
{
    FORMS_ASSERT(input.rank() == 4, "im2col expects NCHW");
    const int64_t n = input.dim(0), c = input.dim(1);
    const int h = static_cast<int>(input.dim(2));
    const int w = static_cast<int>(input.dim(3));
    const int oh = convOutDim(h, kh, stride, pad);
    const int ow = convOutDim(w, kw, stride, pad);

    const int64_t rows = c * kh * kw;
    const int64_t cols = n * oh * ow;
    // Reuse the caller's buffer when the geometry matches (the conv
    // hot path hands the same scratch tensor to every micro-batch);
    // every output element is written below, so stale contents are
    // harmless.
    if (out.rank() != 2 || out.dim(0) != rows || out.dim(1) != cols)
        out = Tensor({rows, cols});
    float *po = out.data();
    const float *pi = input.data();

    // One task per (image, channel) plane: each writes a disjoint
    // (row band, column band) block of the output.
    parallelFor(0, n * c, grainFor(int64_t(kh) * kw * oh * ow),
                [&](int64_t t, int) {
        const int64_t img = t / c, ch = t % c;
        const float *plane = pi + (img * c + ch) * h * w;
        for (int ky = 0; ky < kh; ++ky) {
            for (int kx = 0; kx < kw; ++kx) {
                const int64_t row = (ch * kh + ky) * kw + kx;
                for (int oy = 0; oy < oh; ++oy) {
                    const int iy = oy * stride - pad + ky;
                    const int64_t col_base = (img * oh + oy) * ow;
                    float *dst = po + row * cols + col_base;
                    if (iy < 0 || iy >= h) {
                        std::fill(dst, dst + ow, 0.0f);
                        continue;
                    }
                    const float *srow = plane + iy * w;
                    if (stride == 1) {
                        // Unit stride reads a contiguous span: pad
                        // fills at the edges, one memcpy for the
                        // interior.
                        const int shift = kx - pad;   // ix = ox + shift
                        const int x0 = std::max(0, -shift);
                        const int x1 = std::min(ow, w - shift);
                        if (x0 > 0)
                            std::fill(dst, dst + std::min(x0, ow), 0.0f);
                        if (x1 > x0)
                            std::memcpy(dst + x0, srow + x0 + shift,
                                        sizeof(float) * (x1 - x0));
                        if (std::max(x0, x1) < ow)
                            std::fill(dst + std::max(x0, x1), dst + ow,
                                      0.0f);
                    } else {
                        for (int ox = 0; ox < ow; ++ox) {
                            const int ix = ox * stride - pad + kx;
                            dst[ox] = (ix >= 0 && ix < w)
                                ? srow[ix] : 0.0f;
                        }
                    }
                }
            }
        }
    });
}

Tensor
im2col(const Tensor &input, int kh, int kw, int stride, int pad)
{
    Tensor out;
    im2colInto(input, kh, kw, stride, pad, out);
    return out;
}

Tensor
col2im(const Tensor &cols, const Shape &input_shape, int kh, int kw,
       int stride, int pad)
{
    FORMS_ASSERT(input_shape.size() == 4, "col2im expects NCHW shape");
    const int64_t n = input_shape[0], c = input_shape[1];
    const int h = static_cast<int>(input_shape[2]);
    const int w = static_cast<int>(input_shape[3]);
    const int oh = convOutDim(h, kh, stride, pad);
    const int ow = convOutDim(w, kw, stride, pad);
    const int64_t ncols = n * oh * ow;
    FORMS_ASSERT(cols.dim(0) == c * kh * kw && cols.dim(1) == ncols,
                 "col2im shape mismatch");

    Tensor out(input_shape);
    float *po = out.data();
    const float *pc = cols.data();

    // One task per (image, channel): scatter-adds land in the task's
    // own input plane, so there are no cross-task writes.
    parallelFor(0, n * c, grainFor(int64_t(kh) * kw * oh * ow),
                [&](int64_t t, int) {
        const int64_t img = t / c, ch = t % c;
        float *plane = po + (img * c + ch) * h * w;
        for (int ky = 0; ky < kh; ++ky) {
            for (int kx = 0; kx < kw; ++kx) {
                const int64_t row = (ch * kh + ky) * kw + kx;
                for (int oy = 0; oy < oh; ++oy) {
                    const int iy = oy * stride - pad + ky;
                    if (iy < 0 || iy >= h)
                        continue;
                    const int64_t col_base = (img * oh + oy) * ow;
                    const float *src = pc + row * ncols + col_base;
                    for (int ox = 0; ox < ow; ++ox) {
                        const int ix = ox * stride - pad + kx;
                        if (ix >= 0 && ix < w)
                            plane[iy * w + ix] += src[ox];
                    }
                }
            }
        }
    });
    return out;
}

Tensor
relu(const Tensor &x)
{
    Tensor y = x;
    y.apply([](float v) { return v > 0.0f ? v : 0.0f; });
    return y;
}

Tensor
reluGrad(const Tensor &x, const Tensor &grad_out)
{
    FORMS_ASSERT(x.numel() == grad_out.numel(), "reluGrad size mismatch");
    Tensor g = grad_out;
    const float *px = x.data();
    float *pg = g.data();
    for (int64_t i = 0; i < g.numel(); ++i)
        if (px[i] <= 0.0f)
            pg[i] = 0.0f;
    return g;
}

Tensor
softmaxRows(const Tensor &logits)
{
    FORMS_ASSERT(logits.rank() == 2, "softmaxRows needs rank-2");
    const int64_t n = logits.dim(0), k = logits.dim(1);
    Tensor out({n, k});
    for (int64_t i = 0; i < n; ++i) {
        float mx = logits.at(i, 0);
        for (int64_t j = 1; j < k; ++j)
            mx = std::max(mx, logits.at(i, j));
        double denom = 0.0;
        for (int64_t j = 0; j < k; ++j) {
            const float e = std::exp(logits.at(i, j) - mx);
            out.at(i, j) = e;
            denom += e;
        }
        for (int64_t j = 0; j < k; ++j)
            out.at(i, j) = static_cast<float>(out.at(i, j) / denom);
    }
    return out;
}

Tensor
maxPool2d(const Tensor &input, int k, int stride, Tensor *argmax)
{
    FORMS_ASSERT(input.rank() == 4, "maxPool2d expects NCHW");
    const int64_t n = input.dim(0), c = input.dim(1);
    const int h = static_cast<int>(input.dim(2));
    const int w = static_cast<int>(input.dim(3));
    const int oh = convOutDim(h, k, stride, 0);
    const int ow = convOutDim(w, k, stride, 0);

    Tensor out({n, c, oh, ow});
    if (argmax)
        *argmax = Tensor({n, c, oh, ow});

    parallelFor(0, n * c, grainFor(int64_t(oh) * ow * k * k),
                [&](int64_t t, int) {
        const int64_t img = t / c, ch = t % c;
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                float best = -std::numeric_limits<float>::infinity();
                int64_t best_idx = -1;
                for (int ky = 0; ky < k; ++ky) {
                    for (int kx = 0; kx < k; ++kx) {
                        const int iy = oy * stride + ky;
                        const int ix = ox * stride + kx;
                        if (iy >= h || ix >= w)
                            continue;
                        const float v = input.at(img, ch, iy, ix);
                        if (v > best) {
                            best = v;
                            best_idx =
                                ((img * c + ch) * h + iy) * w + ix;
                        }
                    }
                }
                out.at(img, ch, oy, ox) = best;
                if (argmax) {
                    argmax->at(img, ch, oy, ox) =
                        static_cast<float>(best_idx);
                }
            }
        }
    });
    return out;
}

Tensor
maxPool2dBackward(const Tensor &grad_out, const Tensor &argmax,
                  const Shape &input_shape)
{
    Tensor grad_in(input_shape);
    const float *pg = grad_out.data();
    const float *pa = argmax.data();
    float *pi = grad_in.data();
    for (int64_t i = 0; i < grad_out.numel(); ++i) {
        const int64_t idx = static_cast<int64_t>(pa[i]);
        FORMS_ASSERT(idx >= 0 && idx < grad_in.numel(),
                     "argmax index out of range");
        pi[idx] += pg[i];
    }
    return grad_in;
}

Tensor
avgPool2d(const Tensor &input, int k, int stride)
{
    FORMS_ASSERT(input.rank() == 4, "avgPool2d expects NCHW");
    const int64_t n = input.dim(0), c = input.dim(1);
    const int h = static_cast<int>(input.dim(2));
    const int w = static_cast<int>(input.dim(3));
    const int oh = convOutDim(h, k, stride, 0);
    const int ow = convOutDim(w, k, stride, 0);
    Tensor out({n, c, oh, ow});
    const float inv = 1.0f / static_cast<float>(k * k);
    parallelFor(0, n * c, grainFor(int64_t(oh) * ow * k * k),
                [&](int64_t t, int) {
        const int64_t img = t / c, ch = t % c;
        for (int oy = 0; oy < oh; ++oy)
            for (int ox = 0; ox < ow; ++ox) {
                float acc = 0.0f;
                for (int ky = 0; ky < k; ++ky)
                    for (int kx = 0; kx < k; ++kx) {
                        const int iy = oy * stride + ky;
                        const int ix = ox * stride + kx;
                        if (iy < h && ix < w)
                            acc += input.at(img, ch, iy, ix);
                    }
                out.at(img, ch, oy, ox) = acc * inv;
            }
    });
    return out;
}

Tensor
avgPool2dBackward(const Tensor &grad_out, const Shape &input_shape,
                  int k, int stride)
{
    Tensor grad_in(input_shape);
    const int64_t n = grad_out.dim(0), c = grad_out.dim(1);
    const int oh = static_cast<int>(grad_out.dim(2));
    const int ow = static_cast<int>(grad_out.dim(3));
    const int h = static_cast<int>(input_shape[2]);
    const int w = static_cast<int>(input_shape[3]);
    const float inv = 1.0f / static_cast<float>(k * k);
    for (int64_t img = 0; img < n; ++img)
        for (int64_t ch = 0; ch < c; ++ch)
            for (int oy = 0; oy < oh; ++oy)
                for (int ox = 0; ox < ow; ++ox) {
                    const float g = grad_out.at(img, ch, oy, ox) * inv;
                    for (int ky = 0; ky < k; ++ky)
                        for (int kx = 0; kx < k; ++kx) {
                            const int iy = oy * stride + ky;
                            const int ix = ox * stride + kx;
                            if (iy < h && ix < w)
                                grad_in.at(img, ch, iy, ix) += g;
                        }
                }
    return grad_in;
}

} // namespace forms
