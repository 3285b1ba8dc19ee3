/**
 * @file
 * Kernel support-vector machine trained with simplified SMO [Platt],
 * standing in for the paper's scikit-learn SVM with a polynomial
 * kernel (Section 7.2's target-set trace classifier).
 */

#ifndef LLCF_ML_SVM_HH
#define LLCF_ML_SVM_HH

#include <cstdint>

#include "ml/dataset.hh"

namespace llcf {

/** Kernel families supported by the SVM. */
enum class SvmKernel { Linear, Polynomial, Rbf };

/** SVM hyper-parameters. */
struct SvmParams
{
    SvmKernel kernel = SvmKernel::Polynomial;
    double c = 1.0;        //!< box constraint
    double degree = 3.0;   //!< polynomial degree
    double gamma = 0.1;    //!< kernel scale (poly and RBF)
    double coef0 = 1.0;    //!< polynomial offset
    double tolerance = 1e-3;
    unsigned maxPasses = 8;   //!< SMO passes without change to stop
    unsigned maxIterations = 20000;
    std::uint64_t seed = 7;
};

/**
 * Binary kernel SVM (labels +1 / -1).
 */
class KernelSvm
{
  public:
    explicit KernelSvm(const SvmParams &params = SvmParams{});

    /** Train on @p data (already scaled by the caller). */
    void fit(const Dataset &data);

    /** Decision value; positive means class +1. */
    double decision(const std::vector<double> &sample) const;

    /** Predicted label (+1 / -1). */
    int predict(const std::vector<double> &sample) const;

    /** Evaluate on a labelled dataset. */
    BinaryMetrics evaluate(const Dataset &data) const;

    /** Number of support vectors retained after training. */
    std::size_t supportVectorCount() const { return supportX_.size(); }

  private:
    double kernel(const std::vector<double> &a,
                  const std::vector<double> &b) const;

    SvmParams params_;
    std::vector<std::vector<double>> supportX_;
    std::vector<double> supportCoef_; //!< alpha_i * y_i
    double bias_ = 0.0;
};

} // namespace llcf

#endif // LLCF_ML_SVM_HH
