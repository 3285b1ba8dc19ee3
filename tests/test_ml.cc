/**
 * @file
 * Tests for the machine-learning substrate: dataset handling and
 * scaling, binary metrics and the kernel SVM on separable and
 * non-linear problems, with parameterised sweeps over kernels.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "ml/svm.hh"

namespace llcf {
namespace {

/** Two Gaussian blobs, linearly separable when spread apart. */
Dataset
makeBlobs(std::size_t per_class, double separation, std::uint64_t seed)
{
    Dataset data;
    Rng rng(seed);
    for (std::size_t i = 0; i < per_class; ++i) {
        data.add({rng.nextGaussian() + separation,
                  rng.nextGaussian() + separation}, +1);
        data.add({rng.nextGaussian() - separation,
                  rng.nextGaussian() - separation}, -1);
    }
    return data;
}

/** Concentric rings: not linearly separable. */
Dataset
makeRings(std::size_t per_class, std::uint64_t seed)
{
    Dataset data;
    Rng rng(seed);
    for (std::size_t i = 0; i < per_class; ++i) {
        const double a1 = rng.nextDouble() * 2.0 * M_PI;
        const double r1 = 1.0 + 0.1 * rng.nextGaussian();
        data.add({r1 * std::cos(a1), r1 * std::sin(a1)}, +1);
        const double a2 = rng.nextDouble() * 2.0 * M_PI;
        const double r2 = 3.0 + 0.1 * rng.nextGaussian();
        data.add({r2 * std::cos(a2), r2 * std::sin(a2)}, -1);
    }
    return data;
}

TEST(Dataset, AddCountsSamplesAndFeatures)
{
    Dataset d;
    for (int i = 0; i < 10; ++i)
        d.add({static_cast<double>(i)}, i % 2 ? 1 : -1);
    EXPECT_EQ(d.size(), 10u);
    EXPECT_EQ(d.features(), 1u);
}

TEST(Scaler, ZeroMeanUnitVariance)
{
    Dataset d;
    Rng rng(3);
    for (int i = 0; i < 500; ++i)
        d.add({rng.nextGaussian(10.0, 5.0),
               rng.nextGaussian(-3.0, 0.5)}, 1);
    StandardScaler scaler;
    scaler.fit(d);
    scaler.transform(d);
    double mean0 = 0.0, var0 = 0.0;
    for (const auto &row : d.x)
        mean0 += row[0];
    mean0 /= d.size();
    for (const auto &row : d.x)
        var0 += (row[0] - mean0) * (row[0] - mean0);
    var0 /= d.size();
    EXPECT_NEAR(mean0, 0.0, 1e-9);
    EXPECT_NEAR(var0, 1.0, 1e-9);
}

TEST(Scaler, ConstantFeatureDoesNotDivideByZero)
{
    Dataset d;
    d.add({5.0}, 1);
    d.add({5.0}, -1);
    StandardScaler scaler;
    scaler.fit(d);
    std::vector<double> row{5.0};
    scaler.transform(row);
    EXPECT_TRUE(std::isfinite(row[0]));
}

TEST(Metrics, RatesComputedCorrectly)
{
    BinaryMetrics m;
    m.add(+1, +1); // tp
    m.add(+1, -1); // fn
    m.add(-1, -1); // tn
    m.add(-1, -1); // tn
    m.add(-1, +1); // fp
    EXPECT_DOUBLE_EQ(m.accuracy(), 3.0 / 5.0);
    EXPECT_DOUBLE_EQ(m.falsePositiveRate(), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(m.falseNegativeRate(), 1.0 / 2.0);
}

class SvmKernelTest : public ::testing::TestWithParam<SvmKernel>
{
};

TEST_P(SvmKernelTest, SeparableBlobsLearned)
{
    const Dataset train = makeBlobs(60, 3.0, 11);
    const Dataset val = makeBlobs(20, 3.0, 12);
    SvmParams params;
    params.kernel = GetParam();
    params.gamma = 0.5;
    KernelSvm svm(params);
    svm.fit(train);
    EXPECT_GE(svm.evaluate(val).accuracy(), 0.95)
        << "kernel " << static_cast<int>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kernels, SvmKernelTest,
                         ::testing::Values(SvmKernel::Linear,
                                           SvmKernel::Polynomial,
                                           SvmKernel::Rbf));

TEST(Svm, NonLinearRingsNeedNonLinearKernel)
{
    const Dataset train = makeRings(90, 13);
    const Dataset val = makeRings(30, 14);

    SvmParams rbf;
    rbf.kernel = SvmKernel::Rbf;
    rbf.gamma = 1.0;
    KernelSvm svm_rbf(rbf);
    svm_rbf.fit(train);
    EXPECT_GE(svm_rbf.evaluate(val).accuracy(), 0.95);

    SvmParams lin;
    lin.kernel = SvmKernel::Linear;
    KernelSvm svm_lin(lin);
    svm_lin.fit(train);
    EXPECT_LE(svm_lin.evaluate(val).accuracy(), 0.8);
}

TEST(Svm, DecisionValueSignMatchesPrediction)
{
    Dataset data = makeBlobs(50, 2.5, 17);
    KernelSvm svm;
    svm.fit(data);
    for (std::size_t i = 0; i < data.size(); ++i) {
        const double dec = svm.decision(data.x[i]);
        EXPECT_EQ(svm.predict(data.x[i]), dec >= 0.0 ? 1 : -1);
    }
    EXPECT_GT(svm.supportVectorCount(), 0u);
}

} // namespace
} // namespace llcf
