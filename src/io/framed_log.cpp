#include "io/framed_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace ftdb::io {
namespace {

constexpr std::size_t kHeaderBytes = 24;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  const int err = errno;  // before the string building below can touch it
  throw std::runtime_error("io: " + what + " failed for " + path + ": " + std::strerror(err));
}

std::vector<unsigned char> read_all(int fd, const std::string& path) {
  std::vector<unsigned char> bytes;
  unsigned char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0) {
      if (errno == EINTR) continue;
      fail("read", path);
    }
    if (r == 0) return bytes;
    bytes.insert(bytes.end(), buf, buf + r);
  }
}

// Best-effort durability for a rename: the directory entry itself.
void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// replace_file's protocol, handing back the descriptor of the new file
/// (positioned at its end) for callers that keep appending to it.
UniqueFd write_replacement(const std::string& path, const void* data, std::size_t len,
                           bool fsync) {
  const std::string tmp = path + ".tmp";
  UniqueFd fd = open_or_throw(tmp, O_RDWR | O_CREAT | O_TRUNC);
  try {
    write_all(fd.get(), data, len, tmp);
    if (fsync) fsync_or_throw(fd.get(), tmp);
    if (::rename(tmp.c_str(), path.c_str()) != 0) fail("rename to " + path, tmp);
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
  if (fsync) fsync_parent_dir(path);
  return fd;
}

void encode_header(unsigned char* out, const LogFormat& format, std::uint64_t fingerprint) {
  std::memcpy(out, format.magic, 8);
  put_u32(out + 8, format.version);
  put_u32(out + 12, static_cast<std::uint32_t>(fingerprint));
  put_u32(out + 16, static_cast<std::uint32_t>(fingerprint >> 32));
  put_u32(out + 20, crc32(out, 20));
}

void check_header(const LogFormat& format, const std::vector<unsigned char>& bytes,
                  std::uint64_t fingerprint, const std::string& path) {
  const std::string name = format.name;
  if (bytes.size() < kHeaderBytes || std::memcmp(bytes.data(), format.magic, 8) != 0 ||
      get_u32(bytes.data() + 20) != crc32(bytes.data(), 20)) {
    throw std::runtime_error(name + ": corrupt header in " + path);
  }
  if (get_u32(bytes.data() + 8) != format.version) {
    throw std::runtime_error(name + ": unsupported version in " + path);
  }
  const std::uint64_t file_fp = static_cast<std::uint64_t>(get_u32(bytes.data() + 12)) |
                                (static_cast<std::uint64_t>(get_u32(bytes.data() + 16)) << 32);
  if (file_fp != fingerprint) {
    throw std::runtime_error(name + ": fingerprint mismatch in " + path + " (" +
                             format.mismatch + ")");
  }
}

/// Hands intact frames after the header to `sink`; returns the offset of the
/// first byte past the last accepted frame (everything after it is torn).
std::size_t scan_frames(const LogFormat& format, const std::vector<unsigned char>& bytes,
                        const FrameSink& sink) {
  std::size_t off = kHeaderBytes;
  while (bytes.size() - off >= format.min_body + kFrameCrcBytes) {
    const unsigned char* body = bytes.data() + off;
    const std::size_t len = format.body_len(body);
    if (bytes.size() - off - kFrameCrcBytes < len) break;
    if (get_u32(body + len) != crc32(body, len)) break;
    if (!sink(body, len)) break;
    off += len + kFrameCrcBytes;
  }
  return off;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void put_u32(unsigned char* out, std::uint32_t v) {
  out[0] = static_cast<unsigned char>(v);
  out[1] = static_cast<unsigned char>(v >> 8);
  out[2] = static_cast<unsigned char>(v >> 16);
  out[3] = static_cast<unsigned char>(v >> 24);
}

std::uint32_t get_u32(const unsigned char* in) {
  return static_cast<std::uint32_t>(in[0]) | (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) | (static_cast<std::uint32_t>(in[3]) << 24);
}

void seal_frame(unsigned char* frame, std::size_t body_len) {
  put_u32(frame + body_len, crc32(frame, body_len));
}

UniqueFd::~UniqueFd() {
  if (fd_ >= 0) ::close(fd_);
}

UniqueFd open_or_throw(const std::string& path, int flags) {
  UniqueFd fd(::open(path.c_str(), flags | O_CLOEXEC, 0644));
  if (!fd) fail("open", path);
  return fd;
}

void write_all(int fd, const void* data, std::size_t len, const std::string& path) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (len > 0) {
    const ssize_t w = ::write(fd, p, len);
    if (w < 0) {
      if (errno == EINTR) continue;
      fail("write", path);
    }
    p += w;
    len -= static_cast<std::size_t>(w);
  }
}

void fsync_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0) fail("fsync", path);
}

void replace_file(const std::string& path, std::string_view bytes, bool fsync) {
  write_replacement(path, bytes.data(), bytes.size(), fsync);
}

FramedLog::FramedLog(const LogFormat& format, std::string path, std::uint64_t fingerprint,
                     bool fsync_writes, const FrameSink& sink)
    : format_(&format),
      path_(std::move(path)),
      fingerprint_(fingerprint),
      fsync_(fsync_writes),
      fd_(open_or_throw(path_, O_RDWR | O_CREAT)) {
  const std::vector<unsigned char> bytes = read_all(fd_.get(), path_);
  if (bytes.empty()) {
    unsigned char header[kHeaderBytes];
    encode_header(header, format, fingerprint_);
    write_all(fd_.get(), header, sizeof header, path_);
    if (fsync_) fsync_or_throw(fd_.get(), path_);
    size_ = kHeaderBytes;
    return;
  }
  check_header(format, bytes, fingerprint_, path_);
  size_ = scan_frames(format, bytes, sink);
  truncated_ = bytes.size() - size_;
  if (truncated_ > 0 && ::ftruncate(fd_.get(), static_cast<off_t>(size_)) != 0) {
    fail("truncating the torn tail", path_);
  }
  if (::lseek(fd_.get(), static_cast<off_t>(size_), SEEK_SET) < 0) fail("seek", path_);
}

void FramedLog::append(const unsigned char* frame, std::size_t len) {
  if (!fd_) {
    throw std::runtime_error(std::string(format_->name) + ": " + path_ +
                             " is poisoned by an earlier failed append; reopen to recover");
  }
  try {
    write_all(fd_.get(), frame, len, path_);
    if (fsync_) fsync_or_throw(fd_.get(), path_);
  } catch (...) {
    // Bytes may have reached the file before the failure, but the caller
    // observes a failed append, so a later replay must not see this frame.
    const auto before = static_cast<off_t>(size_);
    if (::ftruncate(fd_.get(), before) != 0 || ::lseek(fd_.get(), before, SEEK_SET) < 0) {
      fd_ = UniqueFd();  // poisoned
    }
    throw;
  }
  size_ += len;
}

void FramedLog::replace_body(const unsigned char* frames, std::size_t len, bool fsync) {
  std::vector<unsigned char> bytes(kHeaderBytes + len);
  encode_header(bytes.data(), *format_, fingerprint_);
  if (len > 0) std::memcpy(bytes.data() + kHeaderBytes, frames, len);
  fd_ = write_replacement(path_, bytes.data(), bytes.size(), fsync);
  size_ = bytes.size();
}

void FramedLog::scan(const LogFormat& format, const std::string& path, std::uint64_t fingerprint,
                     const FrameSink& sink) {
  const std::vector<unsigned char> bytes = read_all(open_or_throw(path, O_RDONLY).get(), path);
  check_header(format, bytes, fingerprint, path);
  scan_frames(format, bytes, sink);
}

}  // namespace ftdb::io
