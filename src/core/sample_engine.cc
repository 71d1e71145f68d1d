#include "core/sample_engine.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace saphyra {

namespace {

/// 32.32 fixed point: weighted losses lie in [0, 1], so one sample
/// contributes at most 2³² to an accumulator — a uint64 holds 2³² samples
/// before overflow, far beyond any VC cap this codebase produces. Integer
/// accumulation is associative, which keeps the merged moments independent
/// of wave partitioning and worker scheduling; the 2⁻³³ rounding error per
/// sample is orders of magnitude below every stopping tolerance.
constexpr double kFixedPointScale = 4294967296.0;  // 2^32

uint64_t ToFixedPoint(double x) {
  return static_cast<uint64_t>(std::llround(x * kFixedPointScale));
}

double FromFixedPoint(uint64_t fp) {
  return static_cast<double>(fp) / kFixedPointScale;
}

/// #samples with global index in [0, n) assigned to stripe `w` of
/// `num_stripes` under the engine's `j mod W` striping.
uint64_t StripeSamplesBelow(uint64_t n, size_t w, size_t num_stripes) {
  if (n <= w) return 0;
  return (n - w - 1) / num_stripes + 1;
}

}  // namespace

double SampleStats::mean(size_t i) const {
  if (n == 0) return 0.0;
  const double nn = static_cast<double>(n);
  if (weighted) return sums[i] / nn;
  return static_cast<double>(counts[i]) / nn;
}

double SampleStats::sample_variance(size_t i) const {
  SAPHYRA_CHECK(n >= 2);
  const double nn = static_cast<double>(n);
  if (!weighted) {
    const uint64_t ones = counts[i];
    return static_cast<double>(ones) * static_cast<double>(n - ones) /
           (nn * (nn - 1.0));
  }
  const double var =
      (sum_squares[i] - sums[i] * sums[i] / nn) / (nn - 1.0);
  return var > 0.0 ? var : 0.0;
}

SampleEngine::SampleEngine(HypothesisRankingProblem* problem,
                           uint32_t num_workers, Rng* base_rng,
                           ThreadPool* pool)
    : weighted_(problem->has_weighted_losses()), pool_(pool) {
  workers_.push_back(problem);
  // Inline execution serves every logical worker from the primary instance
  // (a worker's output is a pure function of its RNG stream; scratch is
  // epoch-reset state), so physical clones are only materialized when a
  // pool may run workers concurrently. One probe clone is made either way,
  // because clonability must decide the logical worker count identically
  // for pooled and inline runs — a different count partitions the RNG
  // streams differently. For the same reason clonability is all-or-
  // nothing: a problem that clones once must keep cloning (partial
  // clonability would silently give the two execution modes different
  // worker counts), so a later nullptr is a hard error, not a degrade.
  if (num_workers > 1 && pool_ == nullptr) {
    auto probe = problem->CloneForSampling();
    if (probe != nullptr) {
      clones_.push_back(std::move(probe));
      workers_.push_back(clones_.back().get());
      workers_.resize(num_workers, problem);
    }
  } else {
    for (uint32_t i = 1; i < num_workers; ++i) {
      auto clone = problem->CloneForSampling();
      if (i == 1 && clone == nullptr) break;  // non-clonable: one worker
      SAPHYRA_CHECK_MSG(clone != nullptr,
                        "CloneForSampling must not fail after succeeding");
      clones_.push_back(std::move(clone));
      workers_.push_back(clones_.back().get());
    }
  }
  const size_t k = problem->num_hypotheses();
  for (size_t w = 0; w < workers_.size(); ++w) {
    rngs_.push_back(base_rng->Split());
    local_counts_.emplace_back(k, 0);
    if (weighted_) {
      local_fp_sums_.emplace_back(k, 0);
      local_fp_sum_squares_.emplace_back(k, 0);
      weighted_scratch_.emplace_back();
    }
  }
}

void SampleEngine::DrawStriped(uint64_t current, uint64_t target) {
  const size_t nw = workers_.size();
  // Sample j belongs to worker j mod W: each worker's quota — and therefore
  // its RNG stream consumption — is a pure function of (current, target,
  // num_workers), no matter how a run batches its Draw calls.
  auto quota_of = [&](size_t w) {
    return StripeSamplesBelow(target, w, nw) -
           StripeSamplesBelow(current, w, nw);
  };
  if (nw == 1 || pool_ == nullptr) {
    for (size_t w = 0; w < nw; ++w) RunWorker(w, quota_of(w));
  } else {
    pool_->ParallelFor(0, nw,
                       [&](size_t w) { RunWorker(w, quota_of(w)); });
  }
}

uint64_t SampleEngine::Draw(uint64_t current, uint64_t target,
                            std::vector<uint64_t>* counts) {
  SAPHYRA_CHECK(target >= current);
  if (target == current) return target;
  DrawStriped(current, target);
  for (auto& local : local_counts_) {
    for (size_t i = 0; i < counts->size(); ++i) {
      (*counts)[i] += local[i];
      local[i] = 0;
    }
  }
  return target;
}

uint64_t SampleEngine::DrawAccumulate(uint64_t current, uint64_t target) {
  SAPHYRA_CHECK(target >= current);
  const size_t k = workers_[0]->num_hypotheses();
  if (agg_counts_.empty()) {
    agg_counts_.assign(k, 0);
    if (weighted_) {
      agg_fp_sums_.assign(k, 0);
      agg_fp_sum_squares_.assign(k, 0);
    }
  }
  if (target > current) {
    DrawStriped(current, target);
    for (size_t w = 0; w < workers_.size(); ++w) {
      for (size_t i = 0; i < k; ++i) {
        agg_counts_[i] += local_counts_[w][i];
        local_counts_[w][i] = 0;
      }
      if (weighted_) {
        for (size_t i = 0; i < k; ++i) {
          agg_fp_sums_[i] += local_fp_sums_[w][i];
          agg_fp_sum_squares_[i] += local_fp_sum_squares_[w][i];
          local_fp_sums_[w][i] = 0;
          local_fp_sum_squares_[w][i] = 0;
        }
      }
    }
  }
  return target;
}

void SampleEngine::SnapshotStats(uint64_t n, SampleStats* stats) const {
  const size_t k = workers_[0]->num_hypotheses();
  stats->n = n;
  stats->weighted = weighted_;
  stats->counts = agg_counts_;
  stats->counts.resize(k, 0);  // agg may be untouched when n == 0
  if (weighted_) {
    stats->sums.resize(k);
    stats->sum_squares.resize(k);
    for (size_t i = 0; i < k; ++i) {
      stats->sums[i] = i < agg_fp_sums_.size()
                           ? FromFixedPoint(agg_fp_sums_[i])
                           : 0.0;
      stats->sum_squares[i] = i < agg_fp_sum_squares_.size()
                                  ? FromFixedPoint(agg_fp_sum_squares_[i])
                                  : 0.0;
    }
  }
}

uint64_t SampleEngine::Draw(uint64_t current, uint64_t target,
                            SampleStats* stats) {
  DrawAccumulate(current, target);
  SnapshotStats(target, stats);
  return target;
}

void SampleEngine::RunWorker(size_t w, uint64_t quota) {
  if (weighted_) {
    auto& hits = weighted_scratch_[w];
    auto& counts = local_counts_[w];
    auto& sums = local_fp_sums_[w];
    auto& squares = local_fp_sum_squares_[w];
    for (uint64_t j = 0; j < quota; ++j) {
      hits.clear();
      workers_[w]->SampleWeightedLosses(&rngs_[w], &hits);
      for (const WeightedHit& h : hits) {
        SAPHYRA_CHECK(h.index < counts.size());
        if (h.value <= 0.0) continue;
        ++counts[h.index];
        sums[h.index] += ToFixedPoint(h.value);
        squares[h.index] += ToFixedPoint(h.value * h.value);
      }
    }
    return;
  }
  std::vector<uint32_t> hits;
  auto& local = local_counts_[w];
  for (uint64_t j = 0; j < quota; ++j) {
    hits.clear();
    workers_[w]->SampleApproxLosses(&rngs_[w], &hits);
    for (uint32_t i : hits) {
      SAPHYRA_CHECK(i < local.size());
      ++local[i];
    }
  }
}

}  // namespace saphyra
