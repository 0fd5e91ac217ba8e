// Sample-by-sample interleaving of a run's arms (scheme x thread count).
#pragma once

#include <cstddef>
#include <vector>

#include "common/timer.hpp"

namespace ladderbench {

/// Runs next the arm that has used the least wall time so far, preferring
/// arms with fewer than kMinSamples samples.  Host drift then hits every
/// arm alike, as in plain round-robin, but a slow scheme no longer starves
/// the fast ones of samples: past its first few samples, every arm gets
/// about the same share of the run.  The run ends before a sample that is
/// expected to end after `seconds`, but never before every arm has
/// kMinSamples samples: a run whose slowest arm needs more than `seconds`
/// for that runs over.
class Interleave {
 public:
  Interleave(std::size_t arms, double seconds)
      : spent_(arms, 0.0), last_(arms, 0.0), count_(arms, 0), seconds_(seconds) {}

  static constexpr int kMinSamples = 3;

  /// The arm to run next, or -1 when the run is over.
  int next() const {
    const auto before = [&](std::size_t a, std::size_t b) {
      const bool a_short = count_[a] < kMinSamples, b_short = count_[b] < kMinSamples;
      return a_short != b_short ? a_short : spent_[a] < spent_[b];
    };
    std::size_t best = 0;
    for (std::size_t i = 1; i < spent_.size(); ++i)
      if (before(i, best)) best = i;
    if (count_[best] >= kMinSamples && elapsed_s() + last_[best] > seconds_) return -1;
    return static_cast<int>(best);
  }

  /// Books one sample of `arm` that took `seconds` of wall time.
  void done(int arm, double seconds) {
    const auto i = static_cast<std::size_t>(arm);
    spent_[i] += seconds;
    last_[i] = seconds;
    ++count_[i];
  }

  double elapsed_s() const { return clock_.seconds(); }

 private:
  std::vector<double> spent_;
  std::vector<double> last_;
  std::vector<int> count_;
  double seconds_;
  nustencil::Timer clock_;
};

}  // namespace ladderbench
