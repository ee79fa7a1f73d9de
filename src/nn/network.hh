/**
 * @file
 * Sequential network container with softmax cross-entropy loss head,
 * plus accuracy evaluation. Residual topologies are expressed through
 * the ResidualBlock composite layer.
 */

#ifndef FORMS_NN_NETWORK_HH
#define FORMS_NN_NETWORK_HH

#include <memory>
#include <vector>

#include "nn/layer.hh"

namespace forms::nn {

/** A stack of layers trained with softmax cross-entropy. */
class Network
{
  public:
    Network() = default;

    /** Append a layer (takes ownership). */
    void add(LayerPtr layer);

    /** Emplace-construct a layer of type L and return a reference. */
    template <typename L, typename... Args>
    L &
    emplace(Args &&...args)
    {
        auto layer = std::make_unique<L>(std::forward<Args>(args)...);
        L &ref = *layer;
        add(std::move(layer));
        return ref;
    }

    /** Forward pass through all layers; returns logits. */
    Tensor forward(const Tensor &input, bool train = false);

    /**
     * Compute mean softmax cross-entropy of `logits` against integer
     * `labels` and, when `grad` is non-null, the gradient w.r.t. logits.
     */
    static double crossEntropy(const Tensor &logits,
                               const std::vector<int> &labels,
                               Tensor *grad);

    /** Backward pass from a logits gradient (after forward(train)). */
    void backward(const Tensor &grad_logits);

    /** Gather all trainable parameters across layers. */
    std::vector<ParamRef> params();

    /** Gather all non-trainable state tensors across layers. */
    std::vector<BufferRef> buffers();

    /** Zero all gradients. */
    void zeroGrads();

    /** Fraction of argmax(logits) == label over a labelled batch. */
    double accuracy(const Tensor &inputs, const std::vector<int> &labels);

    /** Number of layers. */
    size_t size() const { return layers_.size(); }

    /** Access a layer by index. */
    Layer &layer(size_t i) { return *layers_[i]; }

  private:
    std::vector<LayerPtr> layers_;
};

} // namespace forms::nn

#endif // FORMS_NN_NETWORK_HH
