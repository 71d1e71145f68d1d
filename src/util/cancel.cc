#include "util/cancel.h"

#include <algorithm>

namespace saphyra {

int64_t Deadline::NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Deadline Deadline::AfterMillis(uint64_t ms) {
  const int64_t now = NowNanos();
  const int64_t delta =
      static_cast<int64_t>(std::min<uint64_t>(ms, kNeverNs / 2000000))
      * 1000000;
  return Deadline(now + delta);
}

void CancelToken::TightenDeadline(Deadline deadline) {
  const int64_t target = deadline.steady_nanos();
  int64_t cur = deadline_ns_.load(std::memory_order_relaxed);
  while (target < cur && !deadline_ns_.compare_exchange_weak(
                             cur, target, std::memory_order_acq_rel)) {
  }
}

void CancelToken::CancelAfterPolls(uint64_t polls) {
  polls_left_.store(static_cast<int64_t>(polls), std::memory_order_release);
}

bool CancelToken::CanExpire() const {
  if (parent_ != nullptr && parent_->CanExpire()) return true;
  return cancelled_.load(std::memory_order_acquire) ||
         deadline_ns_.load(std::memory_order_acquire) != Deadline::kNeverNs ||
         polls_left_.load(std::memory_order_acquire) >= 0;
}

StatusCode CancelToken::Check() const {
  if (parent_ != nullptr) {
    const StatusCode pc = parent_->Check();
    if (pc != StatusCode::kOk) return pc;
  }
  if (cancelled_.load(std::memory_order_acquire)) {
    return StatusCode::kCancelled;
  }
  const int64_t dl = deadline_ns_.load(std::memory_order_acquire);
  if (dl != Deadline::kNeverNs && Deadline::NowNanos() >= dl) {
    return StatusCode::kDeadlineExceeded;
  }
  return StatusCode::kOk;
}

StatusCode CancelToken::Poll() const {
  // The poll budget counts down even when the deadline fires first, so a
  // test arming both still observes deterministic accounting.
  int64_t left = polls_left_.load(std::memory_order_acquire);
  while (left >= 0 && !polls_left_.compare_exchange_weak(
                          left, left - 1, std::memory_order_acq_rel)) {
  }
  if (left >= 0 && left <= 1) {
    cancelled_.store(true, std::memory_order_release);  // the n-th poll
  }
  return Check();
}

Status CancelToken::ToStatus(StatusCode code, const std::string& what) {
  switch (code) {
    case StatusCode::kCancelled:
      return Status::Cancelled(what + " was cancelled");
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(what + " exceeded its deadline");
    default:
      return Status::OK();
  }
}

}  // namespace saphyra
