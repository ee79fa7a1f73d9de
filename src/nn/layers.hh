/**
 * @file
 * Concrete layers of the DNN substrate: Conv2D, Dense, ReLU, BatchNorm,
 * pooling, Flatten, and a Residual composite block (basic-block style)
 * sufficient to express LeNet/VGG/ResNet-family networks.
 */

#ifndef FORMS_NN_LAYERS_HH
#define FORMS_NN_LAYERS_HH

#include "nn/layer.hh"
#include "tensor/ops.hh"

namespace forms::nn {

/** 2-d convolution (NCHW, square kernel) with optional bias. */
class Conv2D : public Layer
{
  public:
    /**
     * @param name layer name
     * @param in_c input channels
     * @param out_c output channels (filters)
     * @param k square kernel extent
     * @param stride stride
     * @param pad symmetric zero padding
     * @param rng weight initializer source (He initialization)
     */
    Conv2D(std::string name, int in_c, int out_c, int k, int stride,
           int pad, Rng &rng);

    Tensor forward(const Tensor &input, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<ParamRef> params() override;

    /** Filter bank, shape (out_c, in_c, k, k). */
    Tensor &weight() { return weight_; }
    const Tensor &weight() const { return weight_; }

    /** Bias vector, shape (out_c). */
    Tensor &bias() { return bias_; }
    const Tensor &bias() const { return bias_; }

    int inChannels() const { return inC_; }
    int outChannels() const { return outC_; }
    int kernel() const { return k_; }
    int stride() const { return stride_; }
    int pad() const { return pad_; }

  private:
    int inC_, outC_, k_, stride_, pad_;
    Tensor weight_, bias_;
    Tensor gradWeight_, gradBias_;
    Tensor cachedCols_;     //!< im2col of the last forward input
    Shape cachedInShape_;
    int64_t cachedBatch_ = 0;
};

/** Fully connected layer: y = x W^T + b, weight shape (out, in). */
class Dense : public Layer
{
  public:
    Dense(std::string name, int in_dim, int out_dim, Rng &rng);

    Tensor forward(const Tensor &input, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<ParamRef> params() override;

    /** Weight matrix, shape (out_dim, in_dim). */
    Tensor &weight() { return weight_; }
    const Tensor &weight() const { return weight_; }

    /** Bias vector, shape (out_dim). */
    Tensor &bias() { return bias_; }
    const Tensor &bias() const { return bias_; }

    int inDim() const { return inDim_; }
    int outDim() const { return outDim_; }

  private:
    int inDim_, outDim_;
    Tensor weight_, bias_;
    Tensor gradWeight_, gradBias_;
    Tensor cachedIn_;
};

/** Elementwise rectified linear unit. */
class ReLU : public Layer
{
  public:
    explicit ReLU(std::string name) : Layer(std::move(name)) {}
    Tensor forward(const Tensor &input, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    Tensor cachedIn_;
};

/** 2-d max pooling (square window, no padding). */
class MaxPool2D : public Layer
{
  public:
    MaxPool2D(std::string name, int k, int stride)
        : Layer(std::move(name)), k_(k), stride_(stride) {}
    Tensor forward(const Tensor &input, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

    int kernel() const { return k_; }
    int stride() const { return stride_; }

  private:
    int k_, stride_;
    Tensor argmax_;
    Shape cachedInShape_;
};

/** 2-d average pooling (square window, no padding). */
class AvgPool2D : public Layer
{
  public:
    AvgPool2D(std::string name, int k, int stride)
        : Layer(std::move(name)), k_(k), stride_(stride) {}
    Tensor forward(const Tensor &input, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

    int kernel() const { return k_; }
    int stride() const { return stride_; }

  private:
    int k_, stride_;
    Shape cachedInShape_;
};

/** Collapse NCHW to (N, C*H*W). */
class Flatten : public Layer
{
  public:
    explicit Flatten(std::string name) : Layer(std::move(name)) {}
    Tensor forward(const Tensor &input, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

  private:
    Shape cachedInShape_;
};

/**
 * Per-channel batch normalization over NCHW batches with learned scale
 * and shift. Keeps running statistics for evaluation mode.
 */
class BatchNorm2D : public Layer
{
  public:
    BatchNorm2D(std::string name, int channels, float momentum = 0.1f,
                float eps = 1e-5f);

    Tensor forward(const Tensor &input, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<ParamRef> params() override;
    std::vector<BufferRef> buffers() override;

    // Introspection hooks for compiler passes (compile/passes.hh):
    // BN folding reads the affine parameters and running statistics
    // and rewrites them in place.
    Tensor &gamma() { return gamma_; }
    const Tensor &gamma() const { return gamma_; }
    Tensor &beta() { return beta_; }
    const Tensor &beta() const { return beta_; }
    Tensor &runningMean() { return runMean_; }
    const Tensor &runningMean() const { return runMean_; }
    Tensor &runningVar() { return runVar_; }
    const Tensor &runningVar() const { return runVar_; }
    float eps() const { return eps_; }
    int channels() const { return channels_; }

  private:
    int channels_;
    float momentum_, eps_;
    Tensor gamma_, beta_, gradGamma_, gradBeta_;
    Tensor runMean_, runVar_;
    // backward caches
    Tensor cachedXhat_;
    Tensor cachedInvStd_;   //!< per channel
    Shape cachedInShape_;
};

/**
 * Residual basic block: out = ReLU(F(x) + shortcut(x)) where F is
 * conv-bn-relu-conv-bn and the shortcut is identity or a strided 1x1
 * conv + bn projection when shape changes (ResNet-style).
 */
class ResidualBlock : public Layer
{
  public:
    ResidualBlock(std::string name, int in_c, int out_c, int stride,
                  Rng &rng);

    Tensor forward(const Tensor &input, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<ParamRef> params() override;
    std::vector<BufferRef> buffers() override;

    // Introspection hooks so compile::lowerNetwork can flatten the
    // block into explicit graph nodes (the unique_ptrs stay owned by
    // the block; callers get mutable Layer access through them).
    const std::vector<LayerPtr> &mainPath() const { return main_; }
    const std::vector<LayerPtr> &shortcutPath() const { return shortcut_; }

  private:
    std::vector<LayerPtr> main_;       //!< conv1 bn1 relu conv2 bn2
    std::vector<LayerPtr> shortcut_;   //!< empty for identity
    Tensor cachedSum_;                 //!< pre-activation sum (for ReLU grad)
};

} // namespace forms::nn

#endif // FORMS_NN_LAYERS_HH
