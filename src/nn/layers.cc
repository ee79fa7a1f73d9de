#include "nn/layers.hh"

#include <cmath>

namespace forms::nn {

// ---------------------------------------------------------------- Conv2D

Conv2D::Conv2D(std::string name, int in_c, int out_c, int k, int stride,
               int pad, Rng &rng)
    : Layer(std::move(name)), inC_(in_c), outC_(out_c), k_(k),
      stride_(stride), pad_(pad),
      weight_({out_c, in_c, k, k}),
      bias_({out_c}),
      gradWeight_({out_c, in_c, k, k}),
      gradBias_({out_c})
{
    // He initialization: std = sqrt(2 / fan_in).
    const float std = std::sqrt(2.0f / static_cast<float>(in_c * k * k));
    weight_.fillGaussian(rng, 0.0f, std);
}

Tensor
Conv2D::forward(const Tensor &input, bool train)
{
    FORMS_ASSERT(input.rank() == 4 && input.dim(1) == inC_,
                 "conv '%s' input mismatch", name().c_str());
    const int64_t n = input.dim(0);
    const int h = static_cast<int>(input.dim(2));
    const int w = static_cast<int>(input.dim(3));
    const int oh = convOutDim(h, k_, stride_, pad_);
    const int ow = convOutDim(w, k_, stride_, pad_);

    Tensor cols = im2col(input, k_, k_, stride_, pad_);
    Tensor wmat = weight_.reshaped({outC_, inC_ * k_ * k_});
    Tensor prod = matmul(wmat, cols);   // (outC, n*oh*ow)

    Tensor out({n, outC_, oh, ow});
    const int64_t spatial = static_cast<int64_t>(oh) * ow;
    for (int64_t img = 0; img < n; ++img)
        for (int64_t f = 0; f < outC_; ++f) {
            const float b = bias_.at(f);
            for (int64_t s = 0; s < spatial; ++s)
                out.data()[(img * outC_ + f) * spatial + s] =
                    prod.data()[f * (n * spatial) + img * spatial + s] + b;
        }

    if (train) {
        cachedCols_ = std::move(cols);
        cachedInShape_ = input.shape();
        cachedBatch_ = n;
    }
    return out;
}

Tensor
Conv2D::backward(const Tensor &grad_out)
{
    FORMS_ASSERT(cachedBatch_ > 0, "conv backward before forward");
    const int64_t n = grad_out.dim(0);
    const int64_t oh = grad_out.dim(2), ow = grad_out.dim(3);
    const int64_t spatial = oh * ow;

    // Reorder grad_out (n, f, s) into (f, n*s) to match im2col layout.
    Tensor gmat({outC_, n * spatial});
    for (int64_t img = 0; img < n; ++img)
        for (int64_t f = 0; f < outC_; ++f)
            for (int64_t s = 0; s < spatial; ++s)
                gmat.data()[f * (n * spatial) + img * spatial + s] =
                    grad_out.data()[(img * outC_ + f) * spatial + s];

    // dW = gmat * cols^T ; shape (outC, inC*k*k)
    Tensor cols_t = transpose(cachedCols_);
    Tensor dw = matmul(gmat, cols_t);
    gradWeight_.add(dw.reshaped(gradWeight_.shape()));

    // db = row sums of gmat
    for (int64_t f = 0; f < outC_; ++f) {
        double acc = 0.0;
        for (int64_t s = 0; s < n * spatial; ++s)
            acc += gmat.data()[f * (n * spatial) + s];
        gradBias_.at(f) += static_cast<float>(acc);
    }

    // dX = W^T * gmat scattered through col2im.
    Tensor wmat = weight_.reshaped({outC_, inC_ * k_ * k_});
    Tensor dcols = matmulTransposeA(wmat, gmat);
    return col2im(dcols, cachedInShape_, k_, k_, stride_, pad_);
}

std::vector<ParamRef>
Conv2D::params()
{
    return {
        {name() + ".weight", &weight_, &gradWeight_, true, false},
        {name() + ".bias", &bias_, &gradBias_, false, false},
    };
}

// ----------------------------------------------------------------- Dense

Dense::Dense(std::string name, int in_dim, int out_dim, Rng &rng)
    : Layer(std::move(name)), inDim_(in_dim), outDim_(out_dim),
      weight_({out_dim, in_dim}), bias_({out_dim}),
      gradWeight_({out_dim, in_dim}), gradBias_({out_dim})
{
    const float std = std::sqrt(2.0f / static_cast<float>(in_dim));
    weight_.fillGaussian(rng, 0.0f, std);
}

Tensor
Dense::forward(const Tensor &input, bool train)
{
    FORMS_ASSERT(input.rank() == 2 && input.dim(1) == inDim_,
                 "dense '%s' input mismatch", name().c_str());
    Tensor out = matmulTransposeB(input, weight_);  // (n, out)
    for (int64_t i = 0; i < out.dim(0); ++i)
        for (int64_t j = 0; j < outDim_; ++j)
            out.at(i, j) += bias_.at(j);
    if (train)
        cachedIn_ = input;
    return out;
}

Tensor
Dense::backward(const Tensor &grad_out)
{
    // dW = grad_out^T * x ; dX = grad_out * W ; db = column sums.
    Tensor dw = matmulTransposeA(grad_out, cachedIn_);
    gradWeight_.add(dw);
    for (int64_t j = 0; j < outDim_; ++j) {
        double acc = 0.0;
        for (int64_t i = 0; i < grad_out.dim(0); ++i)
            acc += grad_out.at(i, j);
        gradBias_.at(j) += static_cast<float>(acc);
    }
    return matmul(grad_out, weight_);
}

std::vector<ParamRef>
Dense::params()
{
    return {
        {name() + ".weight", &weight_, &gradWeight_, false, true},
        {name() + ".bias", &bias_, &gradBias_, false, false},
    };
}

// ------------------------------------------------------------------ ReLU

Tensor
ReLU::forward(const Tensor &input, bool train)
{
    if (train)
        cachedIn_ = input;
    return relu(input);
}

Tensor
ReLU::backward(const Tensor &grad_out)
{
    return reluGrad(cachedIn_, grad_out);
}

// ------------------------------------------------------------- MaxPool2D

Tensor
MaxPool2D::forward(const Tensor &input, bool train)
{
    cachedInShape_ = input.shape();
    return maxPool2d(input, k_, stride_, train ? &argmax_ : nullptr);
}

Tensor
MaxPool2D::backward(const Tensor &grad_out)
{
    return maxPool2dBackward(grad_out, argmax_, cachedInShape_);
}

// ------------------------------------------------------------- AvgPool2D

Tensor
AvgPool2D::forward(const Tensor &input, bool)
{
    cachedInShape_ = input.shape();
    return avgPool2d(input, k_, stride_);
}

Tensor
AvgPool2D::backward(const Tensor &grad_out)
{
    return avgPool2dBackward(grad_out, cachedInShape_, k_, stride_);
}

// --------------------------------------------------------------- Flatten

Tensor
Flatten::forward(const Tensor &input, bool)
{
    cachedInShape_ = input.shape();
    const int64_t n = input.dim(0);
    return input.reshaped({n, input.numel() / n});
}

Tensor
Flatten::backward(const Tensor &grad_out)
{
    return grad_out.reshaped(cachedInShape_);
}

// ----------------------------------------------------------- BatchNorm2D

BatchNorm2D::BatchNorm2D(std::string name, int channels, float momentum,
                         float eps)
    : Layer(std::move(name)), channels_(channels), momentum_(momentum),
      eps_(eps),
      gamma_({channels}, 1.0f), beta_({channels}),
      gradGamma_({channels}), gradBeta_({channels}),
      runMean_({channels}), runVar_({channels}, 1.0f)
{
}

Tensor
BatchNorm2D::forward(const Tensor &input, bool train)
{
    FORMS_ASSERT(input.rank() == 4 && input.dim(1) == channels_,
                 "batchnorm '%s' input mismatch", name().c_str());
    const int64_t n = input.dim(0);
    const int64_t h = input.dim(2), w = input.dim(3);
    const int64_t per_chan = n * h * w;

    Tensor out(input.shape());
    if (train) {
        cachedXhat_ = Tensor(input.shape());
        cachedInvStd_ = Tensor({channels_});
        cachedInShape_ = input.shape();
    }

    for (int64_t c = 0; c < channels_; ++c) {
        double mean, var;
        if (train) {
            double acc = 0.0;
            for (int64_t img = 0; img < n; ++img)
                for (int64_t s = 0; s < h * w; ++s)
                    acc += input.data()[(img * channels_ + c) * h * w + s];
            mean = acc / static_cast<double>(per_chan);
            double vacc = 0.0;
            for (int64_t img = 0; img < n; ++img)
                for (int64_t s = 0; s < h * w; ++s) {
                    const double d =
                        input.data()[(img * channels_ + c) * h * w + s] -
                        mean;
                    vacc += d * d;
                }
            var = vacc / static_cast<double>(per_chan);
            runMean_.at(c) = (1.0f - momentum_) * runMean_.at(c) +
                momentum_ * static_cast<float>(mean);
            runVar_.at(c) = (1.0f - momentum_) * runVar_.at(c) +
                momentum_ * static_cast<float>(var);
        } else {
            mean = runMean_.at(c);
            var = runVar_.at(c);
        }
        const float inv_std =
            1.0f / std::sqrt(static_cast<float>(var) + eps_);
        const float g = gamma_.at(c), b = beta_.at(c);
        for (int64_t img = 0; img < n; ++img)
            for (int64_t s = 0; s < h * w; ++s) {
                const int64_t idx = (img * channels_ + c) * h * w + s;
                const float xh =
                    (input.data()[idx] - static_cast<float>(mean)) * inv_std;
                out.data()[idx] = g * xh + b;
                if (train)
                    cachedXhat_.data()[idx] = xh;
            }
        if (train)
            cachedInvStd_.at(c) = inv_std;
    }
    return out;
}

Tensor
BatchNorm2D::backward(const Tensor &grad_out)
{
    const int64_t n = grad_out.dim(0);
    const int64_t h = grad_out.dim(2), w = grad_out.dim(3);
    const int64_t m = n * h * w;

    Tensor grad_in(cachedInShape_);
    for (int64_t c = 0; c < channels_; ++c) {
        double sum_dy = 0.0, sum_dy_xhat = 0.0;
        for (int64_t img = 0; img < n; ++img)
            for (int64_t s = 0; s < h * w; ++s) {
                const int64_t idx = (img * channels_ + c) * h * w + s;
                sum_dy += grad_out.data()[idx];
                sum_dy_xhat += static_cast<double>(grad_out.data()[idx]) *
                    cachedXhat_.data()[idx];
            }
        gradBeta_.at(c) += static_cast<float>(sum_dy);
        gradGamma_.at(c) += static_cast<float>(sum_dy_xhat);

        const float g = gamma_.at(c);
        const float inv_std = cachedInvStd_.at(c);
        const float k1 = static_cast<float>(sum_dy / m);
        const float k2 = static_cast<float>(sum_dy_xhat / m);
        for (int64_t img = 0; img < n; ++img)
            for (int64_t s = 0; s < h * w; ++s) {
                const int64_t idx = (img * channels_ + c) * h * w + s;
                const float xh = cachedXhat_.data()[idx];
                grad_in.data()[idx] = g * inv_std *
                    (grad_out.data()[idx] - k1 - xh * k2);
            }
    }
    return grad_in;
}

std::vector<ParamRef>
BatchNorm2D::params()
{
    return {
        {name() + ".gamma", &gamma_, &gradGamma_, false, false},
        {name() + ".beta", &beta_, &gradBeta_, false, false},
    };
}

std::vector<BufferRef>
BatchNorm2D::buffers()
{
    return {
        {name() + ".running_mean", &runMean_},
        {name() + ".running_var", &runVar_},
    };
}

// --------------------------------------------------------- ResidualBlock

ResidualBlock::ResidualBlock(std::string name, int in_c, int out_c,
                             int stride, Rng &rng)
    : Layer(std::move(name))
{
    const std::string &n = this->name();
    main_.push_back(std::make_unique<Conv2D>(
        n + ".conv1", in_c, out_c, 3, stride, 1, rng));
    main_.push_back(std::make_unique<BatchNorm2D>(n + ".bn1", out_c));
    main_.push_back(std::make_unique<ReLU>(n + ".relu1"));
    main_.push_back(std::make_unique<Conv2D>(
        n + ".conv2", out_c, out_c, 3, 1, 1, rng));
    main_.push_back(std::make_unique<BatchNorm2D>(n + ".bn2", out_c));

    if (stride != 1 || in_c != out_c) {
        shortcut_.push_back(std::make_unique<Conv2D>(
            n + ".proj", in_c, out_c, 1, stride, 0, rng));
        shortcut_.push_back(std::make_unique<BatchNorm2D>(
            n + ".proj_bn", out_c));
    }
}

Tensor
ResidualBlock::forward(const Tensor &input, bool train)
{
    Tensor x = input;
    for (auto &l : main_)
        x = l->forward(x, train);
    Tensor s = input;
    for (auto &l : shortcut_)
        s = l->forward(s, train);
    x.add(s);
    if (train)
        cachedSum_ = x;
    return relu(x);
}

Tensor
ResidualBlock::backward(const Tensor &grad_out)
{
    Tensor g = reluGrad(cachedSum_, grad_out);
    // Shortcut path gradient.
    Tensor gs = g;
    for (auto it = shortcut_.rbegin(); it != shortcut_.rend(); ++it)
        gs = (*it)->backward(gs);
    // Main path gradient.
    Tensor gm = g;
    for (auto it = main_.rbegin(); it != main_.rend(); ++it)
        gm = (*it)->backward(gm);
    gm.add(gs);
    return gm;
}

std::vector<ParamRef>
ResidualBlock::params()
{
    std::vector<ParamRef> out;
    for (auto &l : main_)
        for (auto &p : l->params())
            out.push_back(p);
    for (auto &l : shortcut_)
        for (auto &p : l->params())
            out.push_back(p);
    return out;
}

std::vector<BufferRef>
ResidualBlock::buffers()
{
    std::vector<BufferRef> out;
    for (auto &l : main_)
        for (auto &b : l->buffers())
            out.push_back(b);
    for (auto &l : shortcut_)
        for (auto &b : l->buffers())
            out.push_back(b);
    return out;
}

} // namespace forms::nn
