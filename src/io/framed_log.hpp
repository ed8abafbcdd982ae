// Durable-file I/O: the one place in the library that frames, CRCs, writes,
// fsyncs or atomically replaces a file that must survive a crash.
//
// Two kinds of durable file sit on this layer:
//
//   * framed logs (the serve fault journal, the elastic block log): a
//     fingerprinted header followed by append-only frames, each a
//     format-defined body closed by a CRC-32 of that body;
//   * whole-file snapshots (checkpoints, the elastic spec), replaced
//     atomically by replace_file().
//
// Framed-log header (24 bytes, all integers little-endian):
//
//     magic        8 bytes  per format
//     version      u32      per format
//     fingerprint  u64      of the config/spec that owns the log — a log
//                           replayed against a different owner would
//                           silently diverge, so mismatches are refused
//     crc          u32      CRC-32 of the preceding 20 bytes
//
// Appends are sequential, so a crash can only tear the final frame. The
// owning open truncates a tail whose frame is short or whose CRC fails; the
// read-only scan never truncates (a torn tail there is usually an append in
// flight on a live writer). A failed append rolls the file back to its
// pre-append length, or — if even that fails — poisons the handle so every
// later append throws, and the file length stays frame-aligned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

namespace ftdb::io {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `len` bytes.
std::uint32_t crc32(const void* data, std::size_t len);

void put_u32(unsigned char* out, std::uint32_t v);
std::uint32_t get_u32(const unsigned char* in);

inline constexpr std::size_t kFrameCrcBytes = 4;

/// Writes the CRC-32 of `frame[0, body_len)` at `frame + body_len`, making
/// the `body_len + kFrameCrcBytes` bytes at `frame` an appendable frame.
void seal_frame(unsigned char* frame, std::size_t body_len);

/// Owns one file descriptor and closes it on destruction; assigning closes
/// the descriptor held before.
class UniqueFd {
 public:
  explicit UniqueFd(int fd = -1) noexcept : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  UniqueFd& operator=(UniqueFd other) noexcept {
    std::swap(fd_, other.fd_);
    return *this;
  }
  ~UniqueFd();

  int get() const { return fd_; }
  explicit operator bool() const { return fd_ >= 0; }

 private:
  int fd_;
};

/// Opens `path` with `flags` (O_CLOEXEC added, mode 0644 on create).
/// Throws std::runtime_error naming the path on failure.
UniqueFd open_or_throw(const std::string& path, int flags);

/// Writes all `len` bytes, retrying on EINTR and short writes. Throws
/// std::runtime_error on any other failure.
void write_all(int fd, const void* data, std::size_t len, const std::string& path);

void fsync_or_throw(int fd, const std::string& path);

/// Atomically replaces the file at `path` with `bytes`: writes `path.tmp`,
/// fsyncs it, renames it into place, then fsyncs the directory. The file is
/// either the old version or the complete new one, never a torn mix. With
/// `fsync` false both fsyncs are skipped (the rename stays atomic).
void replace_file(const std::string& path, std::string_view bytes, bool fsync);

/// What a log format tells the framing layer.
struct LogFormat {
  const char* name;      ///< error-message prefix, e.g. "Journal"
  char magic[8];
  std::uint32_t version;
  const char* mismatch;  ///< error text for a foreign fingerprint
  /// Leading body bytes that body_len() reads.
  std::size_t min_body;
  /// Full body length of the frame whose first `min_body` bytes are at `body`.
  std::size_t (*body_len)(const unsigned char* body);
};

/// Receives each CRC-clean frame body in file order. Returning false ends
/// the scan there and the rest of the file counts as torn tail; throwing
/// aborts the open or scan.
using FrameSink = std::function<bool(const unsigned char* body, std::size_t len)>;

/// An append handle on one framed log, owned by a single writer.
class FramedLog {
 public:
  /// Opens (creating with a header if absent or empty) the log at `path`.
  /// An existing file must carry a valid header with this `fingerprint`;
  /// its intact frames go to `sink`, and the torn tail after them is
  /// truncated away. Throws std::runtime_error on I/O failure, header
  /// corruption or fingerprint mismatch; the descriptor is closed on every
  /// throw.
  FramedLog(const LogFormat& format, std::string path, std::uint64_t fingerprint,
            bool fsync_writes, const FrameSink& sink);

  /// Appends one sealed frame (and fsyncs, when enabled). The frame is
  /// durable when this returns; on failure the file is rolled back, or the
  /// handle is poisoned if the rollback fails too.
  void append(const unsigned char* frame, std::size_t len);

  /// Atomically replaces everything after the header with `frames` (sealed
  /// frames, `len` bytes in all) via replace_file's protocol, and appends
  /// to the new file from then on. Clears a poisoned handle.
  void replace_body(const unsigned char* frames, std::size_t len, bool fsync);

  /// Bytes dropped from a torn tail at open time (0 for a clean log).
  std::size_t truncated_bytes() const { return truncated_; }

  /// Current file length in bytes, header included.
  std::size_t size_bytes() const { return size_; }

  const std::string& path() const { return path_; }

  /// Read-only scan of a (possibly live) log: validates the header, passes
  /// every intact frame to `sink`, and never modifies the file. Throws on a
  /// missing or corrupt header or a fingerprint mismatch.
  static void scan(const LogFormat& format, const std::string& path, std::uint64_t fingerprint,
                   const FrameSink& sink);

 private:
  const LogFormat* format_;
  std::string path_;
  std::uint64_t fingerprint_;
  bool fsync_;
  UniqueFd fd_;
  std::size_t truncated_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ftdb::io
