#include "core/wal.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/crc32.h"
#include "core/error.h"

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace emdpa {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw RuntimeFailure(what + ": " + std::strerror(errno));
}

#ifndef _WIN32
/// write() the whole buffer, retrying short writes and EINTR.
void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("wal: write to '" + path + "' failed");
    }
    done += static_cast<std::size_t>(n);
  }
}
#endif

/// "XXXXXXXX" — 8 lowercase hex digits, the footer's fixed width.
std::string crc_hex(std::uint32_t crc) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%08x", crc);
  return buffer;
}

constexpr char kCrcMarker[] = " #crc=";
constexpr std::size_t kCrcMarkerLen = sizeof(kCrcMarker) - 1;
constexpr std::size_t kCrcDigits = 8;

/// Parse one framed line back to its payload; false when the frame is
/// malformed or the CRC does not verify (a torn or corrupted record).
bool unframe(const std::string& line, std::string* payload) {
  if (line.size() < kCrcMarkerLen + kCrcDigits) return false;
  const std::size_t marker = line.rfind(kCrcMarker);
  if (marker == std::string::npos) return false;
  if (marker + kCrcMarkerLen + kCrcDigits != line.size()) return false;
  std::uint32_t stored = 0;
  for (std::size_t i = 0; i < kCrcDigits; ++i) {
    const char c = line[marker + kCrcMarkerLen + i];
    std::uint32_t digit = 0;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<std::uint32_t>(c - 'a' + 10);
    else return false;
    stored = (stored << 4) | digit;
  }
  const std::string body = line.substr(0, marker);
  if (crc32(body) != stored) return false;
  *payload = body;
  return true;
}

}  // namespace

std::string wal_frame(const std::string& payload) {
  return payload + kCrcMarker + crc_hex(crc32(payload));
}

void fsync_file(const std::string& path) {
#ifndef _WIN32
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail_errno("fsync: cannot open '" + path + "'");
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno("fsync: fsync of '" + path + "' failed");
  }
  ::close(fd);
#else
  (void)path;
#endif
}

void fsync_parent_directory(const std::string& path) {
#ifndef _WIN32
  fs::path parent = fs::path(path).parent_path();
  if (parent.empty()) parent = ".";
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) fail_errno("fsync: cannot open directory '" + parent.string() + "'");
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno("fsync: fsync of directory '" + parent.string() + "' failed");
  }
  ::close(fd);
#else
  (void)path;
#endif
}

std::string read_file_bytes(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw RuntimeFailure(std::string(what) + ": cannot open '" + path + "'");
  }
  const std::streamoff size = in.tellg();
  std::string bytes;
  if (size > 0) {
    bytes.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(bytes.data(), size);
  }
  if (size < 0 || !in) {
    throw RuntimeFailure(std::string(what) + ": cannot read '" + path + "'");
  }
  return bytes;
}

WalReplay read_wal(const std::string& path) {
  WalReplay replay;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::error_code ec;
    if (!fs::exists(path, ec)) return replay;  // missing = empty log
    throw RuntimeFailure("wal: cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t eol = content.find('\n', pos);
    // A record is only committed once its newline landed; anything after
    // the last newline — and anything that fails to verify — is the torn
    // tail a mid-append kill leaves behind.
    if (eol == std::string::npos) break;
    std::string payload;
    if (!unframe(content.substr(pos, eol - pos), &payload)) break;
    replay.records.push_back(std::move(payload));
    pos = eol + 1;
  }
  if (pos < content.size()) {
    replay.truncated = true;
    replay.dropped_bytes = content.size() - pos;
  }
  return replay;
}

WalWriter::WalWriter(std::string path) : path_(std::move(path)) {
  EMDPA_REQUIRE(!path_.empty(), "wal: path must not be empty");
  open_append();
}

WalWriter::~WalWriter() { close_fd(); }

void WalWriter::open_append() {
#ifndef _WIN32
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) fail_errno("wal: cannot open '" + path_ + "' for append");
#endif
}

void WalWriter::close_fd() {
#ifndef _WIN32
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
#endif
}

void WalWriter::append(const std::string& payload) {
  EMDPA_REQUIRE(payload.find('\n') == std::string::npos,
                "wal: record payloads are single-line");
#ifndef _WIN32
  const std::string line = wal_frame(payload) + "\n";
  write_all(fd_, line.data(), line.size(), path_);
  if (::fsync(fd_) != 0) fail_errno("wal: fsync of '" + path_ + "' failed");
#endif
  ++appended_;
}

void WalWriter::rewrite(const std::vector<std::string>& records) {
#ifndef _WIN32
  close_fd();
  const std::string tmp = path_ + ".tmp";
  const int fd = ::open(tmp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    open_append();  // keep the appender usable after a failed rotation
    fail_errno("wal: cannot open '" + tmp + "' for rotation");
  }
  try {
    for (const std::string& payload : records) {
      EMDPA_REQUIRE(payload.find('\n') == std::string::npos,
                    "wal: record payloads are single-line");
      const std::string line = wal_frame(payload) + "\n";
      write_all(fd, line.data(), line.size(), tmp);
    }
    if (::fsync(fd) != 0) fail_errno("wal: fsync of '" + tmp + "' failed");
  } catch (...) {
    ::close(fd);
    std::error_code ignored;
    fs::remove(tmp, ignored);
    open_append();
    throw;
  }
  ::close(fd);
  std::error_code ec;
  fs::rename(tmp, path_, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    open_append();
    throw RuntimeFailure("wal: cannot commit rotated segment '" + tmp +
                         "' onto '" + path_ + "': " + ec.message());
  }
  fsync_parent_directory(path_);
  open_append();
#else
  (void)records;
#endif
}

std::uint64_t WalWriter::size_bytes() const {
  std::error_code ec;
  const auto size = fs::file_size(path_, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

}  // namespace emdpa
