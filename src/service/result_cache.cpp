#include "service/result_cache.hpp"

#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "util/strfmt.hpp"

namespace dualcast::service {
namespace {

bool is_hex16(const std::string& text) {
  if (text.size() != 16) return false;
  for (const char c : text) {
    const bool ok =
        (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::uint64_t result_cache_key(const scenario::ScenarioSpec& applied_spec,
                               const scenario::RunOptions& options) {
  std::uint64_t key = scenario::kFnvOffsetBasis;
  key = scenario::fnv1a64(scenario::hash_hex(scenario::catalog_hash()), key);
  key = scenario::fnv1a64(scenario::canonical_spec_string(applied_spec), key);
  // "kernel" named the engine path older binaries could also set to
  // "scalar"; it stays so their default-option entries still hit.
  key = scenario::fnv1a64("kernel", key);
  key = scenario::fnv1a64(scenario::to_string(options.rng), key);
  return key;
}

ResultCache::ResultCache(std::string dir, std::uint64_t max_bytes,
                         util::Fs* fs, util::Clock* clock)
    : dir_(std::move(dir)),
      max_bytes_(max_bytes),
      fs_(fs != nullptr ? fs : &util::real_fs()),
      clock_(clock != nullptr ? clock : &util::system_clock()) {
  fs_->create_dirs(dir_);
  sweep_orphans();
  load_index();
}

std::string ResultCache::entry_path(std::uint64_t key) const {
  return str(dir_, "/", scenario::hash_hex(key), ".rows");
}

std::string ResultCache::index_path() const { return str(dir_, "/index"); }

void ResultCache::sweep_orphans() {
  // A writer that crashed between temp-write and rename leaves
  // "<name>.tmp.<pid>.<seq>" behind; they are never read, only wasted
  // bytes, so clear them on open. (A *concurrent* writer's in-flight temp
  // may be swept too — its rename then fails and that store degrades to
  // uncached, which callers tolerate by design.)
  for (const std::string& name : fs_->list(dir_)) {
    if (name.find(".tmp.") != std::string::npos) {
      fs_->unlink(str(dir_, "/", name));
    }
  }
}

void ResultCache::load_index() {
  entries_.clear();
  std::map<std::string, std::int64_t> last_used;
  std::string text;
  if (util::read_file_retry_estale(*fs_, index_path(), text)) {
    std::istringstream in(text);
    std::string line;
    std::getline(in, line);  // header; tolerate anything (best-effort)
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string hex;
      std::uint64_t bytes = 0;
      std::int64_t used = 0;
      if ((fields >> hex >> bytes >> used) && is_hex16(hex)) {
        last_used[hex] = used;
      }
    }
  }
  // The directory is the source of truth for *what* exists and its size;
  // the index only contributes recency. Entries on disk but unknown to
  // the index get last_used 0 (oldest — evicted first, which is safe).
  bool drifted = false;
  for (const std::string& name : fs_->list(dir_)) {
    if (name.size() != 16 + 5 || name.substr(16) != ".rows") continue;
    const std::string hex = name.substr(0, 16);
    if (!is_hex16(hex)) continue;
    const std::int64_t rows = fs_->file_size(str(dir_, "/", name));
    const std::int64_t meta = fs_->file_size(str(dir_, "/", hex, ".meta"));
    Entry entry;
    entry.bytes = static_cast<std::uint64_t>(rows > 0 ? rows : 0) +
                  static_cast<std::uint64_t>(meta > 0 ? meta : 0);
    const auto it = last_used.find(hex);
    if (it != last_used.end()) {
      entry.last_used = it->second;
    } else {
      drifted = true;
    }
    entries_[hex] = entry;
  }
  if (entries_.size() != last_used.size()) drifted = true;
  if (drifted) {
    try {
      persist_index();
    } catch (const util::IoError&) {
      // Read-only cache: still serves hits, just can't record recency.
    }
  }
}

void ResultCache::persist_index() {
  std::ostringstream body;
  body << "dualcast-cache v1\n";
  for (const auto& [hex, entry] : entries_) {
    body << hex << " " << entry.bytes << " " << entry.last_used << "\n";
  }
  fs_->write_file_atomic(index_path(), body.str());
}

std::optional<std::vector<std::string>> ResultCache::lookup(
    std::uint64_t key) {
  std::string text;
  if (!util::read_file_retry_estale(*fs_, entry_path(key), text)) {
    return std::nullopt;
  }
  std::vector<std::string> rows;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) rows.push_back(line);
  }
  const auto it = entries_.find(scenario::hash_hex(key));
  if (it != entries_.end()) {
    it->second.last_used = clock_->now_seconds();
    try {
      persist_index();
    } catch (const util::IoError&) {
      // Best-effort touch: a read-only cache still serves hits.
    }
  }
  return rows;
}

void ResultCache::store(std::uint64_t key,
                        const std::vector<std::string>& rows,
                        const std::string& description) {
  fs_->create_dirs(dir_);
  std::ostringstream body;
  for (const std::string& row : rows) body << row << "\n";
  const std::string path = entry_path(key);
  const std::string meta_path = path.substr(0, path.size() - 5) + ".meta";
  fs_->write_file_atomic(path, body.str());
  fs_->write_file_atomic(meta_path, description);

  const std::string hex = scenario::hash_hex(key);
  Entry& entry = entries_[hex];
  const std::int64_t rows_size = fs_->file_size(path);
  const std::int64_t meta_size = fs_->file_size(meta_path);
  entry.bytes = static_cast<std::uint64_t>(rows_size > 0 ? rows_size : 0) +
                static_cast<std::uint64_t>(meta_size > 0 ? meta_size : 0);
  entry.last_used = clock_->now_seconds();
  evict(hex);
  persist_index();
}

std::uint64_t ResultCache::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [hex, entry] : entries_) total += entry.bytes;
  return total;
}

void ResultCache::shed(std::uint64_t target_bytes) {
  bool changed = false;
  while (total_bytes() > target_bytes && !entries_.empty()) {
    // Same LRU victim rule as evict(), but no keep entry and no budget
    // check — shedding may empty the cache entirely.
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used ||
          (it->second.last_used == victim->second.last_used &&
           it->first < victim->first)) {
        victim = it;
      }
    }
    fs_->unlink(str(dir_, "/", victim->first, ".rows"));
    fs_->unlink(str(dir_, "/", victim->first, ".meta"));
    entries_.erase(victim);
    changed = true;
  }
  if (changed) persist_index();
}

void ResultCache::evict(const std::string& keep_hex) {
  if (max_bytes_ == 0) return;
  while (total_bytes() > max_bytes_ && entries_.size() > 1) {
    // Least-recently-used victim (key as tie-break for determinism under
    // a frozen clock); the entry just stored is never the victim.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == keep_hex) continue;
      if (victim == entries_.end() ||
          it->second.last_used < victim->second.last_used ||
          (it->second.last_used == victim->second.last_used &&
           it->first < victim->first)) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;
    fs_->unlink(str(dir_, "/", victim->first, ".rows"));
    fs_->unlink(str(dir_, "/", victim->first, ".meta"));
    entries_.erase(victim);
  }
}

}  // namespace dualcast::service
