/**
 * @file
 * Layer interface for the DNN substrate. Layers own their parameters
 * and gradients; the trainer and the ADMM framework access them through
 * ParamRef handles so regularization terms can be injected uniformly.
 */

#ifndef FORMS_NN_LAYER_HH
#define FORMS_NN_LAYER_HH

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hh"

namespace forms::nn {

/** Handle to one trainable parameter tensor and its gradient. */
struct ParamRef
{
    std::string name;     //!< qualified name, e.g. "conv1.weight"
    Tensor *value;        //!< parameter storage (owned by the layer)
    Tensor *grad;         //!< gradient accumulator (same shape)
    bool isConvWeight;    //!< true for conv filter banks (prunable)
    bool isDenseWeight;   //!< true for dense weight matrices (prunable)
};

/**
 * Handle to one non-trainable state tensor that belongs to the model
 * (e.g. BatchNorm running statistics): saved and loaded with the
 * parameters, never touched by the optimizer.
 */
struct BufferRef
{
    std::string name;   //!< qualified name, e.g. "bn1.running_mean"
    Tensor *value;      //!< storage (owned by the layer)
};

/**
 * Abstract differentiable layer.
 *
 * forward() may cache activations needed by backward(); backward()
 * consumes the gradient w.r.t. the layer output and returns the
 * gradient w.r.t. the layer input while accumulating parameter
 * gradients.
 */
class Layer
{
  public:
    explicit Layer(std::string name) : name_(std::move(name)) {}
    virtual ~Layer() = default;

    /** Layer instance name (unique within a network). */
    const std::string &name() const { return name_; }

    /** Run the layer on a batch; `train` enables training-only caching. */
    virtual Tensor forward(const Tensor &input, bool train) = 0;

    /** Backpropagate; returns gradient w.r.t. the layer input. */
    virtual Tensor backward(const Tensor &grad_out) = 0;

    /** Expose trainable parameters (default: none). */
    virtual std::vector<ParamRef> params() { return {}; }

    /** Expose non-trainable state tensors (default: none). */
    virtual std::vector<BufferRef> buffers() { return {}; }

    /** Zero all parameter gradients. */
    void
    zeroGrads()
    {
        for (auto &p : params())
            p.grad->fill(0.0f);
    }

  private:
    std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace forms::nn

#endif // FORMS_NN_LAYER_HH
