#include "nn/network.hh"

#include <cmath>

#include "tensor/ops.hh"

namespace forms::nn {

void
Network::add(LayerPtr layer)
{
    layers_.push_back(std::move(layer));
}

Tensor
Network::forward(const Tensor &input, bool train)
{
    Tensor x = input;
    for (auto &l : layers_)
        x = l->forward(x, train);
    return x;
}

double
Network::crossEntropy(const Tensor &logits, const std::vector<int> &labels,
                      Tensor *grad)
{
    FORMS_ASSERT(logits.rank() == 2, "crossEntropy expects rank-2 logits");
    const int64_t n = logits.dim(0);
    const int64_t k = logits.dim(1);
    FORMS_ASSERT(static_cast<int64_t>(labels.size()) == n,
                 "label count mismatch");

    Tensor probs = softmaxRows(logits);
    double loss = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        const int y = labels[static_cast<size_t>(i)];
        FORMS_ASSERT(y >= 0 && y < k, "label out of range");
        loss += -std::log(std::max(probs.at(i, y), 1e-12f));
    }
    loss /= static_cast<double>(n);

    if (grad) {
        *grad = probs;
        const float inv_n = 1.0f / static_cast<float>(n);
        for (int64_t i = 0; i < n; ++i) {
            grad->at(i, labels[static_cast<size_t>(i)]) -= 1.0f;
            for (int64_t j = 0; j < k; ++j)
                grad->at(i, j) *= inv_n;
        }
    }
    return loss;
}

void
Network::backward(const Tensor &grad_logits)
{
    Tensor g = grad_logits;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        g = (*it)->backward(g);
}

std::vector<ParamRef>
Network::params()
{
    std::vector<ParamRef> out;
    for (auto &l : layers_)
        for (auto &p : l->params())
            out.push_back(p);
    return out;
}

std::vector<BufferRef>
Network::buffers()
{
    std::vector<BufferRef> out;
    for (auto &l : layers_)
        for (auto &b : l->buffers())
            out.push_back(b);
    return out;
}

void
Network::zeroGrads()
{
    for (auto &p : params())
        p.grad->fill(0.0f);
}

double
Network::accuracy(const Tensor &inputs, const std::vector<int> &labels)
{
    Tensor logits = forward(inputs, false);
    const int64_t n = logits.dim(0);
    const int64_t k = logits.dim(1);
    int64_t correct = 0;
    for (int64_t i = 0; i < n; ++i) {
        int best = 0;
        for (int64_t j = 1; j < k; ++j)
            if (logits.at(i, j) > logits.at(i, best))
                best = static_cast<int>(j);
        if (best == labels[static_cast<size_t>(i)])
            ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(n);
}

} // namespace forms::nn
