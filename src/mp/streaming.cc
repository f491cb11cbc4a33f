#include "mp/streaming.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/fault.h"
#include "series/znorm.h"
#include "simd/dispatch.h"

namespace valmod::mp {

namespace {

/// Absolute variance threshold for constant-window classification in the
/// streaming setting (the batch path scales this with the global variance,
/// which is unknowable mid-stream; anchoring keeps values moderate).
constexpr double kStreamConstantVariance = 1e-12;

/// Re-anchor once the retained window's squared mean exceeds this multiple
/// of its variance: past that ratio the mean-of-squares / square-of-mean
/// cancellation starts eating into the ~1e-10 accuracy the parity suites
/// rely on (relative variance error ~ eps * ratio).
constexpr double kReanchorMeanVarianceRatio = 1e6;

}  // namespace

Result<StreamingProfile> StreamingProfile::Create(
    std::size_t length, const StreamingOptions& options) {
  VALMOD_RETURN_IF_ERROR(CheckSubsequenceLength(length));
  if (options.exclusion_fraction < 0.0 || options.exclusion_fraction > 1.0) {
    return Status::InvalidArgument("exclusion_fraction must be in [0, 1]");
  }
  if (options.max_points != 0 && options.max_points < 2 * length) {
    return Status::InvalidArgument(
        "max_points must be 0 (unbounded) or >= 2 * length (" +
        std::to_string(2 * length) + "); got " +
        std::to_string(options.max_points));
  }
  return StreamingProfile(
      length, ExclusionZoneFor(length, options.exclusion_fraction), options);
}

Result<StreamingProfile> StreamingProfile::Create(std::size_t length,
                                                  double exclusion_fraction) {
  StreamingOptions options;
  options.exclusion_fraction = exclusion_fraction;
  return Create(length, options);
}

double StreamingProfile::Mean(std::size_t offset) const {
  return (prefix_[offset + length_] - prefix_[offset]) /
         static_cast<double>(length_);
}

double StreamingProfile::Variance(std::size_t offset) const {
  const double inv_len = 1.0 / static_cast<double>(length_);
  const double mean = (prefix_[offset + length_] - prefix_[offset]) * inv_len;
  const double mean_sq =
      (prefix_sq_[offset + length_] - prefix_sq_[offset]) * inv_len;
  const double var = mean_sq - mean * mean;
  return var > 0.0 ? var : 0.0;
}

Status StreamingProfile::Append(double value) {
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("non-finite value appended");
  }
  AppendValidated(value);
  return Status::Ok();
}

Status StreamingProfile::AppendAll(std::span<const double> values) {
  // Validate the whole batch up front: a bad value rejects the batch
  // atomically instead of leaving the points before it appended (the old
  // per-point loop's behavior, which forced callers to treat every batch
  // error as a possibly-partial write).
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument("non-finite value at index " +
                                     std::to_string(i));
    }
  }
  if (values.empty()) return Status::Ok();
  // Models the batch's array growth failing, once per batch — the per-point
  // core below never allocates unpredictably because of the reserves.
  VALMOD_RETURN_IF_ERROR(VALMOD_FAULT_POINT("streaming.append.alloc"));
  const std::size_t add = values.size();
  values_.Reserve(add);
  prefix_.Reserve(add + 1);
  prefix_sq_.Reserve(add + 1);
  distances_.Reserve(add);
  neighbors_.Reserve(add);
  for (const double value : values) AppendValidated(value);
  return Status::Ok();
}

void StreamingProfile::AppendValidated(double value) {
  if (!anchored_) {
    anchor_ = value;
    anchored_ = true;
  }
  const double shifted = value - anchor_;
  if (prefix_.size() == 0) {
    prefix_.PushBack(0.0);
    prefix_sq_.PushBack(0.0);
  }
  prefix_.PushBack(prefix_.back() + shifted);
  prefix_sq_.PushBack(prefix_sq_.back() + shifted * shifted);
  if (values_.Append(shifted) > 0) EvictOne();

  const std::size_t n = values_.size();
  if (n < length_) return;  // warm-up

  const std::size_t base = values_.start_index();
  const double* v = values_.values().data();
  const std::size_t m = n - length_;  // newest window offset (local)
  if (m == 0) {
    last_dots_.assign(1, series::DotProduct(v, v, length_));
    simd::NoteKernelCalls(simd::KernelKind::kDotProduct, 1);
    last_dots_start_ = base;
    distances_.PushBack(kInfinity);
    neighbors_.PushBack(-1);
    MaybeReanchor();
    return;
  }

  // Dots of the new window vs every retained window: derive from the
  // previous newest window's dots with the diagonal recurrence; only
  // QT(0, m) needs a direct O(l) product. `last_dots_` is addressed by
  // global window offset (entry 0 = last_dots_start_), so an eviction
  // between appends just shifts the lookup — the dropped entry is exactly
  // the one no retained window needs anymore.
  std::vector<double> new_dots(m + 1);
  new_dots[0] = series::DotProduct(v, v + m, length_);
  simd::NoteKernelCalls(simd::KernelKind::kDotProduct, 1);
  const double tail_new = v[m + length_ - 1];
  const std::size_t shift = base - last_dots_start_;
  for (std::size_t j = 1; j <= m; ++j) {
    new_dots[j] = last_dots_[j - 1 + shift] - v[j - 1] * v[m - 1] +
                  v[j + length_ - 1] * tail_new;
  }

  distances_.PushBack(kInfinity);
  neighbors_.PushBack(-1);

  const double mean_m = Mean(m);
  const double var_m = Variance(m);
  const double std_m = std::sqrt(var_m);
  const bool const_m = var_m <= kStreamConstantVariance;

  for (std::size_t j = 0; j + exclusion_ <= m; ++j) {
    const double var_j = Variance(j);
    const double d = series::PairDistanceFromDot(
        new_dots[j], Mean(j), mean_m, std::sqrt(var_j), std_m, length_,
        var_j <= kStreamConstantVariance, const_m);
    if (d < distances_[j]) {
      distances_[j] = d;
      neighbors_[j] = static_cast<std::int64_t>(base + m);
    }
    if (d < distances_[m]) {
      distances_[m] = d;
      neighbors_[m] = static_cast<std::int64_t>(base + j);
    }
  }

  last_dots_ = std::move(new_dots);
  last_dots_start_ = base;
  MaybeReanchor();
}

void StreamingProfile::EvictOne() {
  // values_ already dropped its oldest point; keep the prefix boundaries
  // and the profile rows in lockstep. Prefix entries are sums from a fixed
  // origin, so dropping the oldest boundary leaves every window difference
  // intact.
  prefix_.PopFront();
  prefix_sq_.PopFront();
  if (distances_.size() == 0) return;  // W >= 2l makes this unreachable
  distances_.PopFront();
  neighbors_.PopFront();
  // The dropped window is the one at the previous window start; any
  // retained row whose nearest neighbor it was must be repaired or the
  // profile would keep a distance to data that no longer exists.
  const std::int64_t evicted_window =
      static_cast<std::int64_t>(values_.start_index()) - 1;
  const std::size_t rows = distances_.size();
  for (std::size_t w = 0; w < rows; ++w) {
    if (neighbors_[w] == evicted_window) RepairRow(w);
  }
}

void StreamingProfile::RepairRow(std::size_t row) {
  distances_[row] = kInfinity;
  neighbors_[row] = -1;
  const double* v = values_.values().data();
  const std::int64_t base = static_cast<std::int64_t>(values_.start_index());
  const double mean_r = Mean(row);
  const double var_r = Variance(row);
  const double std_r = std::sqrt(var_r);
  const bool const_r = var_r <= kStreamConstantVariance;
  const std::size_t rows = distances_.size();
  std::uint64_t direct_dots = 0;
  for (std::size_t j = 0; j < rows; ++j) {
    const std::size_t gap = j > row ? j - row : row - j;
    if (gap < exclusion_) continue;
    ++direct_dots;
    const double var_j = Variance(j);
    const double d = series::PairDistanceFromDot(
        series::DotProduct(v + row, v + j, length_), mean_r, Mean(j), std_r,
        std::sqrt(var_j), length_, const_r,
        var_j <= kStreamConstantVariance);
    // Prefer the *youngest* window among (bit-)equal candidates: a young
    // neighbor survives ~W more evictions, so ties in repetitive data do
    // not re-orphan this row on every eviction and trigger repeated O(W l)
    // repairs.
    if (d < distances_[row] ||
        (d == distances_[row] &&
         base + static_cast<std::int64_t>(j) > neighbors_[row])) {
      distances_[row] = d;
      neighbors_[row] = base + static_cast<std::int64_t>(j);
    }
  }
  simd::NoteKernelCalls(simd::KernelKind::kDotProduct, direct_dots);
}

void StreamingProfile::MaybeReanchor() {
  if (!reanchor_) return;
  const std::size_t n = values_.size();
  if (n < length_) return;
  // Rate limit: at most one re-anchor per `length` appends bounds the
  // O(W l) recompute below to O(W) amortized per append — the same order
  // as the regular update pass — even on pathological streams that keep
  // re-triggering (e.g. constant values at a large offset, whose variance
  // is exactly 0).
  if (values_.total_appended() < last_reanchor_total_ + length_) return;
  const double inv = 1.0 / static_cast<double>(n);
  const double mean = (prefix_[n] - prefix_[0]) * inv;
  const double mean_sq = (prefix_sq_[n] - prefix_sq_[0]) * inv;
  const double var = std::max(0.0, mean_sq - mean * mean);
  if (mean == 0.0 || mean * mean <= kReanchorMeanVarianceRatio * var) return;

  // Fold the window mean into the anchor. Distances already recorded are
  // untouched: they were computed while the ratio was still below the
  // threshold, and z-normalized distances are invariant under the shift.
  anchor_ += mean;
  for (double& x : values_.mutable_values()) x -= mean;
  prefix_.Clear();
  prefix_sq_.Clear();
  prefix_.Reserve(n + 1);
  prefix_sq_.Reserve(n + 1);
  prefix_.PushBack(0.0);
  prefix_sq_.PushBack(0.0);
  for (const double x : values_.values()) {
    prefix_.PushBack(prefix_.back() + x);
    prefix_sq_.PushBack(prefix_sq_.back() + x * x);
  }
  // The dot-product carry is a sum of products of shifted values, which is
  // *not* shift invariant — recompute it directly against the re-shifted
  // values.
  const std::size_t m = n - length_;
  const double* v = values_.values().data();
  last_dots_.assign(m + 1, 0.0);
  for (std::size_t w = 0; w <= m; ++w) {
    last_dots_[w] = series::DotProduct(v + w, v + m, length_);
  }
  simd::NoteKernelCalls(simd::KernelKind::kDotProduct, m + 1);
  last_dots_start_ = values_.start_index();
  last_reanchor_total_ = values_.total_appended();
}

MatrixProfile StreamingProfile::ProfileSnapshot() const {
  MatrixProfile profile;
  profile.subsequence_length = length_;
  profile.exclusion_zone = exclusion_;
  const std::size_t rows = distances_.size();
  profile.distances.resize(rows);
  profile.indices.resize(rows);
  const std::int64_t base = static_cast<std::int64_t>(values_.start_index());
  for (std::size_t w = 0; w < rows; ++w) {
    profile.distances[w] = distances_[w];
    profile.indices[w] = neighbors_[w] < 0 ? -1 : neighbors_[w] - base;
  }
  return profile;
}

std::vector<MotifPair> StreamingProfile::TopMotifs(std::size_t k) const {
  return TopKMotifs(ProfileSnapshot(), k);
}

std::size_t StreamingProfile::MemoryBytes() const {
  return values_.MemoryBytes() + prefix_.MemoryBytes() +
         prefix_sq_.MemoryBytes() + last_dots_.capacity() * sizeof(double) +
         distances_.MemoryBytes() +
         neighbors_.MemoryBytes();
}

}  // namespace valmod::mp
