#include "svm.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "common/rng.hh"

namespace llcf {

KernelSvm::KernelSvm(const SvmParams &params) : params_(params)
{
}

double
KernelSvm::kernel(const std::vector<double> &a,
                  const std::vector<double> &b) const
{
    double dot = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        dot += a[i] * b[i];
    switch (params_.kernel) {
      case SvmKernel::Linear:
        return dot;
      case SvmKernel::Polynomial:
        return std::pow(params_.gamma * dot + params_.coef0,
                        params_.degree);
      case SvmKernel::Rbf: {
        double dist2 = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            const double d = a[i] - b[i];
            dist2 += d * d;
        }
        return std::exp(-params_.gamma * dist2);
      }
    }
    return dot;
}

void
KernelSvm::fit(const Dataset &data)
{
    const std::size_t n = data.size();
    if (n == 0)
        fatal("cannot train an SVM on an empty dataset");

    std::vector<double> alpha(n, 0.0);
    double b = 0.0;
    Rng rng(params_.seed);

    // Cache the kernel matrix when it fits comfortably in memory;
    // training sets here are a few thousand samples at most.
    const bool cache = n <= 4096;
    std::vector<double> kmat;
    if (cache) {
        kmat.resize(n * n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i; j < n; ++j) {
                const double k = kernel(data.x[i], data.x[j]);
                kmat[i * n + j] = k;
                kmat[j * n + i] = k;
            }
        }
    }
    auto kval = [&](std::size_t i, std::size_t j) {
        return cache ? kmat[i * n + j] : kernel(data.x[i], data.x[j]);
    };
    auto fx = [&](std::size_t i) {
        double sum = b;
        for (std::size_t j = 0; j < n; ++j) {
            if (alpha[j] != 0.0)
                sum += alpha[j] * data.y[j] * kval(j, i);
        }
        return sum;
    };

    unsigned passes = 0;
    unsigned iters = 0;
    while (passes < params_.maxPasses && iters < params_.maxIterations) {
        unsigned changed = 0;
        for (std::size_t i = 0; i < n; ++i) {
            ++iters;
            const double ei = fx(i) - data.y[i];
            const bool violates =
                (data.y[i] * ei < -params_.tolerance &&
                 alpha[i] < params_.c) ||
                (data.y[i] * ei > params_.tolerance && alpha[i] > 0.0);
            if (!violates)
                continue;

            std::size_t j = static_cast<std::size_t>(
                rng.nextBelow(n - 1));
            if (j >= i)
                ++j;
            const double ej = fx(j) - data.y[j];

            const double ai_old = alpha[i], aj_old = alpha[j];
            double lo, hi;
            if (data.y[i] != data.y[j]) {
                lo = std::max(0.0, aj_old - ai_old);
                hi = std::min(params_.c, params_.c + aj_old - ai_old);
            } else {
                lo = std::max(0.0, ai_old + aj_old - params_.c);
                hi = std::min(params_.c, ai_old + aj_old);
            }
            if (lo >= hi)
                continue;

            const double eta = 2.0 * kval(i, j) - kval(i, i) -
                               kval(j, j);
            if (eta >= 0.0)
                continue;

            double aj = aj_old - data.y[j] * (ei - ej) / eta;
            aj = std::clamp(aj, lo, hi);
            if (std::abs(aj - aj_old) < 1e-6)
                continue;
            const double ai = ai_old + data.y[i] * data.y[j] *
                              (aj_old - aj);
            alpha[i] = ai;
            alpha[j] = aj;

            const double b1 = b - ei -
                data.y[i] * (ai - ai_old) * kval(i, i) -
                data.y[j] * (aj - aj_old) * kval(i, j);
            const double b2 = b - ej -
                data.y[i] * (ai - ai_old) * kval(i, j) -
                data.y[j] * (aj - aj_old) * kval(j, j);
            if (ai > 0.0 && ai < params_.c)
                b = b1;
            else if (aj > 0.0 && aj < params_.c)
                b = b2;
            else
                b = (b1 + b2) / 2.0;
            ++changed;
        }
        passes = changed == 0 ? passes + 1 : 0;
    }

    supportX_.clear();
    supportCoef_.clear();
    for (std::size_t i = 0; i < n; ++i) {
        if (alpha[i] > 1e-8) {
            supportX_.push_back(data.x[i]);
            supportCoef_.push_back(alpha[i] * data.y[i]);
        }
    }
    bias_ = b;
}

double
KernelSvm::decision(const std::vector<double> &sample) const
{
    double sum = bias_;
    for (std::size_t i = 0; i < supportX_.size(); ++i)
        sum += supportCoef_[i] * kernel(supportX_[i], sample);
    return sum;
}

int
KernelSvm::predict(const std::vector<double> &sample) const
{
    return decision(sample) >= 0.0 ? 1 : -1;
}

BinaryMetrics
KernelSvm::evaluate(const Dataset &data) const
{
    BinaryMetrics m;
    for (std::size_t i = 0; i < data.size(); ++i)
        m.add(data.y[i], predict(data.x[i]));
    return m;
}

} // namespace llcf
