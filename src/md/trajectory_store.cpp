#include "md/trajectory_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "core/crc32.h"
#include "core/error.h"
#include "core/wal.h"

namespace emdpa::md {

namespace fs = std::filesystem;

namespace {

constexpr const char* kIndexMagic = "emdpa-trajindex";
constexpr int kIndexVersion = 1;

}  // namespace

TrajectoryStore::TrajectoryStore(TrajectoryStoreOptions options)
    : options_(std::move(options)) {
  EMDPA_REQUIRE(!options_.directory.empty(),
                "trajectory store directory must not be empty");
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec) {
    throw RuntimeFailure("trajectory store: cannot create directory '" +
                         options_.directory + "': " + ec.message());
  }
  load_index();
}

std::string TrajectoryStore::frame_path(long step) const {
  char name[32];
  std::snprintf(name, sizeof(name), "frame_%012ld.key", step);
  return (fs::path(options_.directory) / name).string();
}

void TrajectoryStore::write_file_atomic(const std::string& path,
                                        const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) {
      throw RuntimeFailure("trajectory store: cannot open '" + tmp +
                           "' for writing");
    }
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      std::error_code ignored;
      fs::remove(tmp, ignored);
      throw RuntimeFailure("trajectory store: write to '" + tmp + "' failed");
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    throw RuntimeFailure("trajectory store: cannot commit '" + tmp + "' to '" +
                         path + "': " + ec.message());
  }
}

void TrajectoryStore::persist_index() {
  std::ostringstream body;
  body << kIndexMagic << ' ' << kIndexVersion << '\n';
  for (const FrameRecord& f : frames_) {
    body << "frame " << f.step << " key " << f.bytes << '\n';
  }
  write_file_atomic((fs::path(options_.directory) / "index").string(),
                    with_crc_footer(body.str()));
}

void TrajectoryStore::load_index() {
  const std::string path = (fs::path(options_.directory) / "index").string();
  std::error_code ec;
  if (!fs::exists(path, ec)) return;  // fresh store
  const std::string body = strip_crc_footer(
      read_file_bytes(path, "trajectory index"), "trajectory index");
  std::istringstream in(body);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kIndexMagic ||
      version != kIndexVersion) {
    throw RuntimeFailure("trajectory index: bad header in '" + path + "'");
  }
  std::string kw;
  while (in >> kw) {
    if (kw != "frame") {
      throw RuntimeFailure("trajectory index: malformed entry in '" + path +
                           "'");
    }
    FrameRecord f;
    std::string kind;
    if (!(in >> f.step >> kind >> f.bytes) ||
        (kind != "key" && kind != "delta")) {
      throw RuntimeFailure("trajectory index: malformed entry in '" + path +
                           "'");
    }
    if (kind == "delta") {
      throw RuntimeFailure(
          "trajectory index: step " + std::to_string(f.step) + " in '" + path +
          "' is an XOR-delta frame (legacy 'emdpa-trajframe 1' delta format, "
          "no longer readable); re-record the trajectory");
    }
    if (!frames_.empty() && f.step <= frames_.back().step) {
      throw RuntimeFailure("trajectory index: steps out of order in '" + path +
                           "'");
    }
    frames_.push_back(f);
    stats_.bytes += f.bytes;
  }
}

void TrajectoryStore::append(const Checkpoint& cp) {
  if (!frames_.empty() && cp.step <= frames_.back().step) {
    throw RuntimeFailure(
        "trajectory store: snapshots must advance (step " +
        std::to_string(cp.step) + " after " +
        std::to_string(frames_.back().step) + ")");
  }
  // A frame IS a complete (binary v5) checkpoint file: load_checkpoint
  // reads it directly, and its own per-section CRCs guard it.
  const std::string content = encode_checkpoint(cp);
  write_file_atomic(frame_path(cp.step), content);
  frames_.push_back({cp.step, content.size()});
  stats_.bytes += content.size();
  ++stats_.snapshots;
  ++stats_.keyframes;

  evict_to_budget();
  persist_index();
}

void TrajectoryStore::evict_to_budget() {
  if (options_.max_bytes == 0) return;
  // Oldest first, one frame at a time; the newest frame always survives, so
  // the most recent snapshot stays restorable no matter the budget.
  std::size_t evicted = 0;
  while (stats_.bytes > options_.max_bytes && evicted + 1 < frames_.size()) {
    std::error_code ignored;
    fs::remove(frame_path(frames_[evicted].step), ignored);
    stats_.bytes -= frames_[evicted].bytes;
    ++stats_.evicted_frames;
    ++evicted;
  }
  frames_.erase(frames_.begin(),
                frames_.begin() + static_cast<std::ptrdiff_t>(evicted));
}

std::vector<long> TrajectoryStore::steps() const {
  std::vector<long> out;
  out.reserve(frames_.size());
  for (const FrameRecord& f : frames_) out.push_back(f.step);
  return out;
}

bool TrajectoryStore::has_step(long step) const {
  const auto it = std::lower_bound(
      frames_.begin(), frames_.end(), step,
      [](const FrameRecord& f, long s) { return f.step < s; });
  return it != frames_.end() && it->step == step;
}

long TrajectoryStore::nearest_at_or_before(long step) const {
  const auto it = std::upper_bound(
      frames_.begin(), frames_.end(), step,
      [](long s, const FrameRecord& f) { return s < f.step; });
  if (it == frames_.begin()) return -1;
  return std::prev(it)->step;
}

Checkpoint TrajectoryStore::load_step(long step) const {
  if (!has_step(step)) {
    throw RuntimeFailure("trajectory store: no snapshot stored for step " +
                         std::to_string(step));
  }
  const std::string path = frame_path(step);
  Checkpoint cp = load_checkpoint(
      read_file_bytes(path, "trajectory frame"));  // CRC-verified
  if (cp.step != step) {
    throw RuntimeFailure("trajectory frame: '" + path + "' holds step " +
                         std::to_string(cp.step) + ", not " +
                         std::to_string(step));
  }
  return cp;
}

}  // namespace emdpa::md
