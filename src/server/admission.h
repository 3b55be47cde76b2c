// Server-side admission control and overload accounting.
//
// Two gates protect the service (DESIGN.md §12):
//   1. Session gate — at most `max_sessions` concurrent connections. The
//      accept loop blocks (backpressure: the kernel listen backlog, then
//      clients' connect queues, absorb the excess) instead of accepting a
//      connection it cannot serve.
//   2. Queue gate — the engine's own `max_queue`: an arrival landing on a
//      full dispatch queue is rejected by HandleArrival with
//      RejectReason::kQueueFull and surfaces to the client as a 429.
//
// This class owns gate 1 and aggregates what both gates shed, so the
// metrics response can report overload behavior without touching the
// engine's internals.
#ifndef URR_SERVER_ADMISSION_H_
#define URR_SERVER_ADMISSION_H_

#include <condition_variable>
#include <mutex>

#include "engine/engine_metrics.h"

namespace urr {

class AdmissionController {
 public:
  /// `max_sessions` <= 0 means unbounded.
  explicit AdmissionController(int max_sessions)
      : max_sessions_(max_sessions) {}

  /// Blocks until a session slot is free (or `Close()` is called); returns
  /// false once closed — the accept loop should stop.
  bool AcquireSession();
  void ReleaseSession();

  /// Wakes every blocked AcquireSession with a false return; further
  /// acquisitions fail immediately. Called on shutdown.
  void Close();

  int active_sessions() const;
  int peak_sessions() const;
  int64_t total_sessions() const;

  /// Records a request the service turned away (429/503) so overload is
  /// visible in the metrics response even though the engine never saw the
  /// request.
  void CountShed(RejectReason reason);
  RejectCounts shed() const;

 private:
  const int max_sessions_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  int active_ = 0;
  int peak_ = 0;
  int64_t total_ = 0;
  RejectCounts shed_;
};

}  // namespace urr

#endif  // URR_SERVER_ADMISSION_H_
