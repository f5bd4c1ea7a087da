#include "md/trajectory_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "core/crc32.h"
#include "core/delta_codec.h"
#include "core/error.h"
#include "core/wal.h"

namespace emdpa::md {

namespace fs = std::filesystem;

namespace {

constexpr const char* kFrameMagic = "emdpa-trajframe";
constexpr int kFrameVersion = 1;
constexpr const char* kIndexMagic = "emdpa-trajindex";
constexpr int kIndexVersion = 1;

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_double(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos += 8;
  return v;
}

double get_double(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  const std::uint64_t bits = get_u64(in, pos);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Fixed little-endian word serialisation of a snapshot — the buffer the
/// delta codec XORs.  Everything that varies step to step is here; the step
/// number and config strings ride in the frame header / keyframe text.
std::vector<std::uint8_t> serialize_words(const Checkpoint& cp) {
  std::vector<std::uint8_t> out;
  const std::size_t n = cp.system.size();
  out.reserve((3 + 9 * n + (cp.langevin_rng ? 6 : 0) +
               (cp.list_ref ? 1 + 3 * n : 0)) *
              8);
  put_double(out, cp.system.mass());
  put_double(out, cp.box_edge);
  put_double(out, cp.potential);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& p = cp.system.positions()[i];
    const auto& v = cp.system.velocities()[i];
    const auto& a = cp.system.accelerations()[i];
    put_double(out, p.x);
    put_double(out, p.y);
    put_double(out, p.z);
    put_double(out, v.x);
    put_double(out, v.y);
    put_double(out, v.z);
    put_double(out, a.x);
    put_double(out, a.y);
    put_double(out, a.z);
  }
  if (cp.langevin_rng) {
    const Rng::State& rng = *cp.langevin_rng;
    put_u64(out, rng.s[0]);
    put_u64(out, rng.s[1]);
    put_u64(out, rng.s[2]);
    put_u64(out, rng.s[3]);
    put_double(out, rng.cached_gaussian);
    put_u64(out, rng.has_cached_gaussian ? 1 : 0);
  }
  if (cp.list_ref) {
    put_double(out, cp.list_ref_cutoff);
    for (const auto& p : *cp.list_ref) {
      put_double(out, p.x);
      put_double(out, p.y);
      put_double(out, p.z);
    }
  }
  return out;
}

/// Inverse of serialize_words onto `shape`'s layout: atom count, optional
/// sections and config come from `shape` (the chain keyframe), the numeric
/// state from `words`.
Checkpoint deserialize_words(const std::vector<std::uint8_t>& words,
                             const Checkpoint& shape, long step) {
  Checkpoint cp;
  const std::size_t n = shape.system.size();
  cp.system = ParticleSystem(n);
  cp.step = step;
  cp.has_potential = true;
  cp.config = shape.config;
  std::size_t pos = 0;
  cp.system.set_mass(get_double(words, pos));
  cp.box_edge = get_double(words, pos);
  cp.potential = get_double(words, pos);
  for (std::size_t i = 0; i < n; ++i) {
    cp.system.positions()[i] = {get_double(words, pos), get_double(words, pos),
                                get_double(words, pos)};
    cp.system.velocities()[i] = {get_double(words, pos), get_double(words, pos),
                                 get_double(words, pos)};
    cp.system.accelerations()[i] = {get_double(words, pos),
                                    get_double(words, pos),
                                    get_double(words, pos)};
  }
  if (shape.langevin_rng) {
    Rng::State rng;
    rng.s = {get_u64(words, pos), get_u64(words, pos), get_u64(words, pos),
             get_u64(words, pos)};
    rng.cached_gaussian = get_double(words, pos);
    rng.has_cached_gaussian = get_u64(words, pos) != 0;
    cp.langevin_rng = rng;
  }
  if (shape.list_ref) {
    cp.list_ref_cutoff = get_double(words, pos);
    std::vector<emdpa::Vec3d> ref(n);
    for (std::size_t i = 0; i < n; ++i) {
      ref[i] = {get_double(words, pos), get_double(words, pos),
                get_double(words, pos)};
    }
    cp.list_ref = std::move(ref);
  }
  if (pos != words.size()) {
    throw RuntimeFailure("trajectory store: frame word count mismatch");
  }
  return cp;
}

/// Anything that changes the word layout OR the arithmetic the snapshot was
/// produced under: a change mid-run forces a fresh keyframe.
std::string shape_of(const Checkpoint& cp) {
  std::string shape = std::to_string(cp.system.size());
  shape += cp.langevin_rng ? "+rng" : "-rng";
  shape += cp.list_ref ? "+ref" : "-ref";
  if (cp.config) {
    shape += '/' + cp.config->kernel + '/' + cp.config->precision + '/' +
             cp.config->simd;
  }
  return shape;
}

}  // namespace

TrajectoryStore::TrajectoryStore(TrajectoryStoreOptions options)
    : options_(std::move(options)) {
  EMDPA_REQUIRE(!options_.directory.empty(),
                "trajectory store directory must not be empty");
  EMDPA_REQUIRE(options_.keyframe_interval >= 1,
                "trajectory store keyframe interval must be >= 1");
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec) {
    throw RuntimeFailure("trajectory store: cannot create directory '" +
                         options_.directory + "': " + ec.message());
  }
  load_index();
}

std::string TrajectoryStore::frame_path(const FrameRecord& frame) const {
  char name[48];
  std::snprintf(name, sizeof(name), "frame_%012ld.%s", frame.step,
                frame.keyframe ? "key" : "delta");
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
    body << "frame " << f.step << ' ' << (f.keyframe ? "key" : "delta") << ' '
         << f.bytes << '\n';
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
    f.keyframe = kind == "key";
    if (!frames_.empty() && f.step <= frames_.back().step) {
      throw RuntimeFailure("trajectory index: steps out of order in '" + path +
                           "'");
    }
    frames_.push_back(f);
    stats_.bytes += f.bytes;
  }
  if (!frames_.empty() && !frames_.front().keyframe) {
    throw RuntimeFailure("trajectory index: first frame is not a keyframe");
  }
  // Chain position for subsequent appends; last_words_/last_shape_ are
  // rebuilt lazily on the first append (they need a frame payload read).
  since_keyframe_ = 0;
  for (auto it = frames_.rbegin(); it != frames_.rend() && !it->keyframe; ++it) {
    ++since_keyframe_;
  }
}

std::size_t TrajectoryStore::frame_index(long step) const {
  const auto it = std::lower_bound(
      frames_.begin(), frames_.end(), step,
      [](const FrameRecord& f, long s) { return f.step < s; });
  if (it == frames_.end() || it->step != step) {
    throw RuntimeFailure("trajectory store: no snapshot stored for step " +
                         std::to_string(step));
  }
  return static_cast<std::size_t>(it - frames_.begin());
}

void TrajectoryStore::append(const Checkpoint& cp) {
  if (!frames_.empty() && cp.step <= frames_.back().step) {
    throw RuntimeFailure(
        "trajectory store: snapshots must advance (step " +
        std::to_string(cp.step) + " after " +
        std::to_string(frames_.back().step) + ")");
  }
  // Reopened store: rebuild the delta base from the newest frame on disk.
  if (!frames_.empty() && last_words_.empty()) {
    const Checkpoint newest = load_step(frames_.back().step);
    last_words_ = serialize_words(newest);
    last_shape_ = shape_of(newest);
  }

  const std::vector<std::uint8_t> words = serialize_words(cp);
  const std::string shape = shape_of(cp);
  const bool keyframe = frames_.empty() || shape != last_shape_ ||
                        since_keyframe_ + 1 >= options_.keyframe_interval;

  FrameRecord frame;
  frame.step = cp.step;
  frame.keyframe = keyframe;

  std::string content;
  if (keyframe) {
    // A keyframe IS a complete (binary v5) checkpoint file: load_checkpoint
    // reads it directly, and its own per-section CRCs guard it.
    content = encode_checkpoint(cp);
  } else {
    std::ostringstream body;
    body << kFrameMagic << ' ' << kFrameVersion << '\n';
    body << "delta step " << cp.step << " base " << frames_.back().step
         << " bytes " << words.size() << '\n';
    body << delta_encode(last_words_, words);
    content = with_crc_footer(body.str());
  }
  frame.bytes = content.size();

  write_file_atomic(frame_path(frame), content);
  frames_.push_back(frame);
  stats_.bytes += frame.bytes;
  ++stats_.snapshots;
  if (keyframe) {
    ++stats_.keyframes;
    since_keyframe_ = 0;
  } else {
    ++stats_.deltas;
    ++since_keyframe_;
  }
  last_words_ = words;
  last_shape_ = shape;

  evict_to_budget();
  persist_index();
}

void TrajectoryStore::evict_to_budget() {
  if (options_.max_bytes == 0) return;
  while (stats_.bytes > options_.max_bytes) {
    // Oldest chain: the first frame (always a keyframe) through the last
    // frame before the next keyframe.  Never evict the newest chain — the
    // most recent snapshots must stay restorable no matter the budget.
    std::size_t chain_end = 1;  // one past the chain's last frame
    while (chain_end < frames_.size() && !frames_[chain_end].keyframe) {
      ++chain_end;
    }
    if (chain_end >= frames_.size()) return;  // only the newest chain remains
    for (std::size_t i = 0; i < chain_end; ++i) {
      std::error_code ignored;
      fs::remove(frame_path(frames_[i]), ignored);
      stats_.bytes -= frames_[i].bytes;
      ++stats_.evicted_frames;
    }
    frames_.erase(frames_.begin(),
                  frames_.begin() + static_cast<std::ptrdiff_t>(chain_end));
  }
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
  const std::size_t target = frame_index(step);
  std::size_t key = target;
  while (key > 0 && !frames_[key].keyframe) --key;
  if (!frames_[key].keyframe) {
    throw RuntimeFailure("trajectory store: no keyframe precedes step " +
                         std::to_string(step));
  }

  Checkpoint cp = load_checkpoint(read_file_bytes(
      frame_path(frames_[key]), "trajectory keyframe"));  // CRC-verified
  if (key == target) return cp;

  std::vector<std::uint8_t> words = serialize_words(cp);
  for (std::size_t i = key + 1; i <= target; ++i) {
    const std::string path = frame_path(frames_[i]);
    const std::string body = strip_crc_footer(
        read_file_bytes(path, "trajectory frame"), "trajectory frame");
    std::istringstream frame(body);
    std::string magic, kw_delta, kw_step, kw_base, kw_bytes;
    int version = 0;
    long frame_step = 0, base_step = 0;
    std::size_t byte_count = 0;
    if (!(frame >> magic >> version >> kw_delta >> kw_step >> frame_step >>
          kw_base >> base_step >> kw_bytes >> byte_count) ||
        magic != kFrameMagic || version != kFrameVersion ||
        kw_delta != "delta" || kw_step != "step" || kw_base != "base" ||
        kw_bytes != "bytes") {
      throw RuntimeFailure("trajectory frame: malformed header in '" + path +
                           "'");
    }
    if (frame_step != frames_[i].step || base_step != frames_[i - 1].step ||
        byte_count != words.size()) {
      throw RuntimeFailure("trajectory frame: chain mismatch in '" + path +
                           "'");
    }
    // Everything after the header line is the delta payload.
    std::string payload;
    std::getline(frame, payload);  // rest of the header line (empty)
    payload.assign(std::istreambuf_iterator<char>(frame),
                   std::istreambuf_iterator<char>());
    words = delta_apply(words, payload);
    cp = deserialize_words(words, cp, frame_step);
  }
  return cp;
}

}  // namespace emdpa::md
