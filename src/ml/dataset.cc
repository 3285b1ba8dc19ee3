#include "dataset.hh"

#include <cmath>

#include "common/log.hh"

namespace llcf {

void
Dataset::add(std::vector<double> features, int label)
{
    if (!x.empty() && features.size() != x[0].size())
        panic("dataset feature width mismatch");
    x.push_back(std::move(features));
    y.push_back(label);
}

void
StandardScaler::fit(const Dataset &data)
{
    const std::size_t f = data.features();
    mean_.assign(f, 0.0);
    std_.assign(f, 1.0);
    if (data.size() == 0)
        return;
    for (const auto &row : data.x) {
        for (std::size_t j = 0; j < f; ++j)
            mean_[j] += row[j];
    }
    for (std::size_t j = 0; j < f; ++j)
        mean_[j] /= static_cast<double>(data.size());
    std::vector<double> var(f, 0.0);
    for (const auto &row : data.x) {
        for (std::size_t j = 0; j < f; ++j) {
            const double d = row[j] - mean_[j];
            var[j] += d * d;
        }
    }
    for (std::size_t j = 0; j < f; ++j) {
        const double s = std::sqrt(var[j] /
                                   static_cast<double>(data.size()));
        std_[j] = s > 1e-12 ? s : 1.0;
    }
}

void
StandardScaler::transform(std::vector<double> &sample) const
{
    for (std::size_t j = 0; j < sample.size() && j < mean_.size(); ++j)
        sample[j] = (sample[j] - mean_[j]) / std_[j];
}

void
StandardScaler::transform(Dataset &data) const
{
    for (auto &row : data.x)
        transform(row);
}

void
BinaryMetrics::add(int truth, int predicted)
{
    if (truth > 0)
        predicted > 0 ? ++tp : ++fn;
    else
        predicted > 0 ? ++fp : ++tn;
}

double
BinaryMetrics::accuracy() const
{
    const std::size_t total = tp + tn + fp + fn;
    return total ? static_cast<double>(tp + tn) /
           static_cast<double>(total) : 0.0;
}

double
BinaryMetrics::falsePositiveRate() const
{
    const std::size_t neg = tn + fp;
    return neg ? static_cast<double>(fp) / static_cast<double>(neg) : 0.0;
}

double
BinaryMetrics::falseNegativeRate() const
{
    const std::size_t pos = tp + fn;
    return pos ? static_cast<double>(fn) / static_cast<double>(pos) : 0.0;
}

} // namespace llcf
