// Write-ahead log: CRC-framed, fsync-disciplined append-only journal.
//
// The durability primitive behind the serving tier's online learning
// (DESIGN.md §13): every committed #REPLICA learn batch is framed as
//
//   [u32 magic][u32 payload length][u32 CRC-32 of payload][payload]
//
// and appended with a data fsync *before* the caller acts on it, so a
// crash at any instant loses at most the record being written — never a
// committed one. Recovery (wal_replay) scans the frame chain and stops at
// the first record that fails validation, classifying the tail precisely:
//
//   kShortHeader       fewer bytes remain than one frame header
//   kTruncatedPayload  the header promises more payload than the file has
//   kBadCrc            payload present but its CRC-32 disagrees
//   kBadMagic          the bytes at the record boundary are not a frame
//                      at all (trailing garbage / misaligned write)
//
// Everything before the bad tail is the committed prefix and is returned
// intact; opening the log for append (Wal) truncates the torn tail so new
// records never land after garbage. Two seeded fault points make the
// crash windows testable: "learn.wal.append" fails an append cleanly
// before any byte reaches the file, and "learn.wal.torn" writes a torn
// prefix of the frame (flushed, so it is what a restart would see) and
// then fails — simulating a power cut mid-append.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace graphner::util {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `size` bytes.
/// `seed` chains calls: crc32(b, crc32(a)) == crc32(a+b).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

/// Why a WAL scan stopped (kClean = end of file, everything valid).
enum class WalTailState : std::uint8_t {
  kClean = 0,
  kShortHeader,       ///< 1..11 bytes left — a frame header was torn
  kTruncatedPayload,  ///< header complete, payload shorter than promised
  kBadCrc,            ///< payload complete but corrupt
  kBadMagic,          ///< trailing garbage: not a frame boundary at all
};

[[nodiscard]] const char* wal_tail_state_name(WalTailState state) noexcept;

struct WalReplay {
  /// Committed payloads, in append order.
  std::vector<std::string> records;
  WalTailState tail = WalTailState::kClean;
  /// Byte length of the valid prefix (== file size when tail is kClean).
  std::uint64_t committed_bytes = 0;
  std::uint64_t file_bytes = 0;
  /// Human-readable description of the tail corruption ("" when clean).
  std::string error;
};

/// Scan `path` and return every committed record plus the tail state.
/// A missing file is an empty, clean log. Throws std::runtime_error only
/// on I/O errors (unreadable file), never on corruption — corruption is
/// data, reported through the tail state.
[[nodiscard]] WalReplay wal_replay(const std::string& path);

/// Append handle over one WAL file. Opening scans the existing content
/// and truncates any torn tail back to the committed prefix, so the
/// append offset is always a valid frame boundary. Not thread-safe —
/// callers serialize appends (the router holds its swap mutex).
class Wal {
 public:
  explicit Wal(std::string path);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Frame `payload`, append it and fsync. On return the record is
  /// durable. Throws FaultInjectedError from the "learn.wal.append"
  /// (clean failure, no bytes written) and "learn.wal.torn" (torn frame
  /// flushed to disk, committed state unchanged) fault points, and
  /// std::runtime_error on real I/O failure. After any failure the next
  /// append rewrites from the committed offset — a torn tail never
  /// becomes a permanent hole.
  void append(std::string_view payload);

  /// Truncate to empty (snapshot compaction) and fsync.
  void reset();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
  /// What the opening scan found at the tail (kClean when the file ended
  /// on a frame boundary; anything else was truncated away).
  [[nodiscard]] WalTailState recovered_tail() const noexcept {
    return recovered_tail_;
  }
  /// Bytes discarded by the opening truncation (0 when clean).
  [[nodiscard]] std::uint64_t recovered_torn_bytes() const noexcept {
    return recovered_torn_bytes_;
  }

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t bytes_ = 0;    ///< committed (fsync'd, validated) length
  std::uint64_t records_ = 0;  ///< committed record count
  WalTailState recovered_tail_ = WalTailState::kClean;
  std::uint64_t recovered_torn_bytes_ = 0;
  /// A failed append may have left bytes past bytes_; the next append
  /// truncates before writing.
  bool dirty_tail_ = false;
};

}  // namespace graphner::util
