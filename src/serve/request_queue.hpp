// Bounded MPMC request queue with work-conserving micro-batching.
//
// Producers (client threads, socket connections) push single requests;
// consumers (decode workers) pop *batches*. A free worker takes everything
// waiting, up to `max_batch`, as soon as the queue is non-empty, so batches
// form only out of backlog. There is no batch-formation timer: open-loop
// arrivals at serving rates never fill a batch, so a timer would only add
// its length to every request (measurements in DESIGN.md §5). Depth is
// bounded: a push against a full queue is rejected immediately (the caller
// answers with Status::kOverloaded) instead of blocking the producer.
// shutdown() stops admission but keeps handing out batches until the queue
// is drained, which is what graceful stop needs.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <vector>

#include "src/crf/decode_options.hpp"
#include "src/serve/types.hpp"
#include "src/text/sentence.hpp"

namespace graphner::serve {

struct BatchPolicy {
  std::size_t max_batch = 32;          ///< most requests one pop takes
  std::size_t max_queue_depth = 1024;  ///< pushes beyond this are rejected
  /// Decode identical token sequences within one micro-batch once and fan
  /// the result out to every duplicate. Decode is deterministic, so the
  /// duplicates' responses are byte-identical; corpus-shaped traffic (the
  /// recurring surface forms GraphNER itself exploits) coalesces heavily.
  /// Only batches can do this — a single-request-at-a-time server never
  /// sees two identical requests at once.
  bool coalesce_duplicates = true;
};

/// One queued request: the sentence, the promise the decode worker
/// fulfills, the enqueue timestamp (queue-wait metrics), and the deadline
/// after which the worker sheds it without decoding.
struct PendingRequest {
  text::Sentence sentence;
  std::promise<TagResponse> promise;
  std::chrono::steady_clock::time_point enqueued_at;
  /// max() = no deadline. Carried through the queue so expiry is checked
  /// where it matters: right before the (expensive) decode.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Per-request decode options (pruning / quantization); nullopt decodes
  /// under the service default. Set by the wire's "#DECODE" control line.
  std::optional<crf::DecodeOptions> decode;
  /// Canonical sentence key, threaded from SubmitOptions (or derived once
  /// at admission) so the coalescing worker never re-joins the tokens.
  std::string key;
  /// Health probe (SubmitOptions::probe): decoded, never counted.
  bool probe = false;

  [[nodiscard]] bool expired(std::chrono::steady_clock::time_point now) const noexcept {
    return now > deadline;
  }
};

class BatchQueue {
 public:
  explicit BatchQueue(BatchPolicy policy) : policy_(policy) {}

  enum class PushResult { kAccepted, kOverloaded, kShutdown };

  /// Non-blocking admission. `request` is consumed only on kAccepted; on
  /// rejection it is left intact so the caller can fulfill its promise
  /// with the structured rejection.
  PushResult push(PendingRequest&& request);

  /// Block until the queue is non-empty, move up to `max_batch` waiting
  /// requests into `out` (cleared first), and return true. Returns false
  /// only after shutdown() once the queue is fully drained.
  bool pop_batch(std::vector<PendingRequest>& out);

  /// Stop admitting work and wake every waiter. Idempotent.
  void shutdown();

  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] const BatchPolicy& policy() const noexcept { return policy_; }

 private:
  BatchPolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<PendingRequest> queue_;
  bool shutdown_ = false;
};

}  // namespace graphner::serve
