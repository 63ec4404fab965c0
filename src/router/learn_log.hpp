// LearnLog: durable, quarantine-aware journal of the online-learning path
// (DESIGN.md §13).
//
// The router's #REPLICA learn path mutates an OnlineLearner in memory and
// swaps the learned fork into every replica — state a crash would silently
// discard. LearnLog makes the path crash-safe with the classic WAL +
// snapshot pair:
//
//   * commit(batch) appends one CRC-framed, fsync'd record per accepted
//     batch to <dir>/learn.wal (util::Wal) *after* the learner absorbed
//     it and the canary gate passed, *before* any replica swaps — so a
//     crash mid-learn leaves no record (the batch never happened), and a
//     crash after the append replays it;
//   * every snapshot_every commits, the full learner state (trigram
//     registry, PPMI counts, k-NN index, distributions, anchors) is
//     written to <dir>/learn.snapshot via util::atomic_save (fault point
//     "learn.snapshot.truncate") and the WAL is reset — bounded log,
//     and recovery cost proportional to the tail;
//   * on construction the newest snapshot is loaded and the WAL tail is
//     replayed on top of it (quarantined sequences skipped), reaching
//     byte-identical learned state: OnlineLearner::learn is deterministic
//     given bit-identical starting state, which the snapshot round-trip
//     guarantees (tests/test_learn.cpp pins this).
//
// Quarantine is the "never serve this batch" primitive behind both the
// canary gate and "#REPLICA learn rollback": a quarantine record names a
// sequence replay must skip, and the live learner is brought to the
// matching state by rebuild() — reconstruct from snapshot + retained
// journal minus the quarantined sequences. Rollback is just a retroactive quarantine of the
// newest committed sequence.
//
// With an empty dir the log runs in-memory only (no durability, no
// compaction): the journal mirror still backs quarantine/rebuild, so the
// canary gate and rollback work without a disk.
//
// Not thread-safe — the router serializes all calls under its swap mutex.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/graphner/learner.hpp"
#include "src/graphner/pipeline.hpp"
#include "src/obs/registry.hpp"
#include "src/util/wal.hpp"

namespace graphner::router {

struct LearnLogConfig {
  /// Directory for learn.wal + learn.snapshot; empty = in-memory only.
  std::string dir;
  /// Committed batches between snapshot compactions (durable mode only).
  std::size_t snapshot_every = 32;
};

/// What construction-time recovery found (logged and surfaced by
/// "#REPLICA learn status" so operators can audit a restart).
struct LearnRecovery {
  bool snapshot_loaded = false;
  std::uint64_t snapshot_seq = 0;
  std::size_t replayed_batches = 0;
  std::size_t skipped_quarantined = 0;
  util::WalTailState wal_tail = util::WalTailState::kClean;
  std::uint64_t wal_torn_bytes = 0;
};

class LearnLog {
 public:
  /// Recovers immediately: loads the newest snapshot (if any), replays the
  /// WAL tail on top, truncating any torn frame. Throws on unreadable
  /// state (corrupt snapshot, snapshot over a different base model).
  LearnLog(LearnLogConfig config,
           std::shared_ptr<const core::GraphNerModel> base,
           core::OnlineLearnerConfig learn_config, obs::Registry& registry);

  [[nodiscard]] core::OnlineLearner& learner() noexcept { return *learner_; }
  [[nodiscard]] const core::OnlineLearner& learner() const noexcept {
    return *learner_;
  }
  [[nodiscard]] const LearnRecovery& recovery() const noexcept {
    return recovery_;
  }

  /// Durably journal `batch` as the next committed sequence and return it.
  /// Call after learner().learn(batch) succeeded and the canary gate
  /// passed, before swapping the fork in. May compact (snapshot + WAL
  /// reset); compaction failure is non-fatal (the commit is already
  /// durable in the WAL). Throws on WAL append failure — the caller must
  /// rebuild() to bring the learner back to the durable state.
  std::uint64_t commit(const std::vector<text::Sentence>& batch);

  /// Durably record that `seq` must never be served: replay skips it and
  /// rebuild() excludes it. For a canary-rejected batch `seq` is the
  /// sequence the batch would have taken (the counter advances past it);
  /// for rollback it is the newest committed sequence. Throws on WAL
  /// append failure.
  void quarantine(std::uint64_t seq, const std::string& reason);

  /// Reconstruct the learner from the newest snapshot + retained journal,
  /// skipping quarantined sequences — the recovery path run live, used
  /// after a canary rejection (the learner already absorbed the poisoned
  /// batch) and after rollback.
  void rebuild();

  [[nodiscard]] bool durable() const noexcept { return wal_ != nullptr; }
  [[nodiscard]] std::uint64_t last_seq() const noexcept { return last_seq_; }
  [[nodiscard]] std::uint64_t snapshot_seq() const noexcept {
    return snapshot_seq_;
  }
  /// Learned-fork fingerprint recorded when the newest snapshot was
  /// written (0 = no snapshot yet).
  [[nodiscard]] std::uint64_t snapshot_fingerprint() const noexcept {
    return snapshot_fingerprint_;
  }
  [[nodiscard]] std::uint64_t quarantined_total() const noexcept {
    return quarantined_total_;
  }
  [[nodiscard]] std::uint64_t wal_bytes() const noexcept {
    return wal_ ? wal_->bytes() : 0;
  }
  [[nodiscard]] std::uint64_t wal_records() const noexcept {
    return wal_ ? wal_->records() : mirror_.size();
  }

 private:
  struct Record {
    std::uint64_t seq = 0;
    bool quarantine = false;
    /// Batch records: one line per sentence (tokens space-joined).
    /// Quarantine records: the reason.
    std::string body;
  };

  [[nodiscard]] std::string snapshot_path() const {
    return config_.dir + "/learn.snapshot";
  }
  [[nodiscard]] std::string wal_path() const {
    return config_.dir + "/learn.wal";
  }
  [[nodiscard]] static std::string encode(const Record& record);
  [[nodiscard]] static Record decode(const std::string& payload);
  [[nodiscard]] static std::vector<text::Sentence> parse_batch(
      const std::string& body);
  /// Fresh-or-snapshot learner with no journal applied.
  [[nodiscard]] std::unique_ptr<core::OnlineLearner> base_learner();
  void apply_journal(std::size_t* replayed, std::size_t* skipped);
  void compact();

  LearnLogConfig config_;
  std::shared_ptr<const core::GraphNerModel> base_;
  core::OnlineLearnerConfig learn_config_;
  obs::Registry& registry_;
  std::unique_ptr<util::Wal> wal_;
  std::unique_ptr<core::OnlineLearner> learner_;
  /// Journal records since the newest snapshot (in-memory mirror of the
  /// WAL tail; the whole journal when not durable).
  std::vector<Record> mirror_;
  std::uint64_t last_seq_ = 0;
  std::uint64_t snapshot_seq_ = 0;
  std::uint64_t snapshot_fingerprint_ = 0;
  std::uint64_t quarantined_total_ = 0;  ///< cumulative, survives compaction
  std::size_t committed_since_snapshot_ = 0;
  bool have_snapshot_ = false;
  LearnRecovery recovery_;
};

}  // namespace graphner::router
