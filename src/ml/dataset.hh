/**
 * @file
 * Small dense dataset utilities for the trace classifiers: feature
 * scaling and binary metrics matching what the paper reports
 * (false-positive / false-negative rates).
 */

#ifndef LLCF_ML_DATASET_HH
#define LLCF_ML_DATASET_HH

#include <vector>

namespace llcf {

/** Binary-labelled dense dataset; labels are +1 / -1. */
struct Dataset
{
    std::vector<std::vector<double>> x;
    std::vector<int> y;

    std::size_t size() const { return x.size(); }
    std::size_t features() const { return x.empty() ? 0 : x[0].size(); }

    /** Append one sample. */
    void add(std::vector<double> features, int label);
};

/** Per-feature standardisation to zero mean / unit variance. */
class StandardScaler
{
  public:
    /** Learn means and deviations from @p data. */
    void fit(const Dataset &data);

    /** Scale one sample in place. */
    void transform(std::vector<double> &sample) const;

    /** Scale a whole dataset in place. */
    void transform(Dataset &data) const;

    const std::vector<double> &means() const { return mean_; }
    const std::vector<double> &stddevs() const { return std_; }

  private:
    std::vector<double> mean_;
    std::vector<double> std_;
};

/** Binary-classification quality metrics. */
struct BinaryMetrics
{
    std::size_t tp = 0, tn = 0, fp = 0, fn = 0;

    void add(int truth, int predicted);

    double accuracy() const;
    /** Fraction of negatives misclassified as positive. */
    double falsePositiveRate() const;
    /** Fraction of positives misclassified as negative. */
    double falseNegativeRate() const;
};

} // namespace llcf

#endif // LLCF_ML_DATASET_HH
