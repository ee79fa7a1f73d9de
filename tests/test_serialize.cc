/**
 * @file
 * Tests for model serialization: exact round trips (hex-float values),
 * compressed models keeping their invariants through save/load,
 * BatchNorm running statistics carried as buffers, and mismatch
 * rejection.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "nn/serialize.hh"
#include "nn/zoo.hh"

namespace forms::nn {
namespace {

TEST(Serialize, RoundTripIsExact)
{
    Rng rng(1);
    auto net = buildTinyConvNet(rng, 4, 6, 1, 12);
    std::ostringstream os;
    saveParameters(*net, os);

    Rng rng2(999);   // different init: values must be overwritten
    auto net2 = buildTinyConvNet(rng2, 4, 6, 1, 12);
    std::istringstream is(os.str());
    loadParameters(*net2, is);

    auto pa = net->params();
    auto pb = net2->params();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i)
        EXPECT_TRUE(pa[i].value->equals(*pb[i].value))
            << pa[i].name;
}

TEST(Serialize, PreservesExactZerosAndSigns)
{
    Rng rng(2);
    auto net = buildTinyConvNet(rng, 4, 6, 1, 12);
    // Sparsify + quantize a weight tensor by hand.
    auto params = net->params();
    Tensor &w = *params[0].value;
    for (int64_t i = 0; i < w.numel(); i += 2)
        w.at(i) = 0.0f;

    std::ostringstream os;
    saveParameters(*net, os);
    Rng rng2(3);
    auto net2 = buildTinyConvNet(rng2, 4, 6, 1, 12);
    std::istringstream is(os.str());
    loadParameters(*net2, is);

    const Tensor &w2 = *net2->params()[0].value;
    EXPECT_EQ(w2.countZeros(), w.countZeros());
    for (int64_t i = 0; i < w.numel(); ++i)
        EXPECT_FLOAT_EQ(w2.at(i), w.at(i));
}

TEST(Serialize, ForwardIdenticalAfterRoundTrip)
{
    Rng rng(4);
    auto net = buildTinyConvNet(rng, 4, 6, 1, 12);
    Tensor x({2, 1, 12, 12});
    x.fillGaussian(rng, 0.0f, 1.0f);
    Tensor before = net->forward(x);

    std::ostringstream os;
    saveParameters(*net, os);
    Rng rng2(5);
    auto net2 = buildTinyConvNet(rng2, 4, 6, 1, 12);
    std::istringstream is(os.str());
    loadParameters(*net2, is);
    Tensor after = net2->forward(x);
    EXPECT_TRUE(before.equals(after));
}

/**
 * BatchNorm running statistics travel with the model: after a few
 * train-mode forwards they differ from their initial values, and a
 * fresh network loaded from the stream must reproduce the eval-mode
 * logits bit for bit.
 */
TEST(Serialize, BatchNormRunningStatsRoundTrip)
{
    Rng rng(8);
    auto net = buildResNetSmall(rng, 4, 8, 1);
    Tensor x({2, 3, 32, 32});
    x.fillGaussian(rng, 0.5f, 1.0f);
    for (int step = 0; step < 5; ++step)
        net->forward(x, true);
    const Tensor before = net->forward(x, false);
    ASSERT_FALSE(net->buffers().empty());

    std::ostringstream os;
    saveParameters(*net, os);
    Rng rng2(9);
    auto net2 = buildResNetSmall(rng2, 4, 8, 1);
    std::istringstream is(os.str());
    loadParameters(*net2, is);

    const Tensor after = net2->forward(x, false);
    ASSERT_EQ(before.shape(), after.shape());
    EXPECT_EQ(0, std::memcmp(before.data(), after.data(),
                             sizeof(float) *
                                 static_cast<size_t>(before.numel())));
}

TEST(Serialize, RejectsBadHeader)
{
    Rng rng(6);
    auto net = buildTinyConvNet(rng, 4, 6, 1, 12);
    std::istringstream is("not-a-model\n");
    EXPECT_DEATH(loadParameters(*net, is), "");
}

TEST(Serialize, RejectsStructuralMismatch)
{
    Rng rng(7);
    auto small = buildTinyConvNet(rng, 4, 6, 1, 12);
    auto big = buildTinyConvNet(rng, 4, 12, 1, 12);
    std::ostringstream os;
    saveParameters(*small, os);
    std::istringstream is(os.str());
    EXPECT_DEATH(loadParameters(*big, is), "");
}

} // namespace
} // namespace forms::nn
