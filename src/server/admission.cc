#include "server/admission.h"

namespace urr {

bool AdmissionController::AcquireSession() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return closed_ || max_sessions_ <= 0 || active_ < max_sessions_;
  });
  if (closed_) return false;
  ++active_;
  ++total_;
  if (active_ > peak_) peak_ = active_;
  return true;
}

void AdmissionController::ReleaseSession() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
  }
  cv_.notify_one();
}

void AdmissionController::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

int AdmissionController::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

int AdmissionController::peak_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

int64_t AdmissionController::total_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void AdmissionController::CountShed(RejectReason reason) {
  std::lock_guard<std::mutex> lock(mu_);
  shed_.Bump(reason);
}

RejectCounts AdmissionController::shed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_;
}

}  // namespace urr
