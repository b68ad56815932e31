#include "service/job_store.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

#include "scenario/plan.hpp"
#include "util/strfmt.hpp"

namespace dualcast::service {
namespace {

using scenario::ScenarioError;

std::string join_path(const std::string& dir, const std::string& leaf) {
  return str(dir, "/", leaf);
}

std::uint64_t value_bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double bits_value(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string crc_hex(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

// --- record encoding ---------------------------------------------------
//
// v2 (written): "r2 <len> <payload> <crc>\n" with payload
// "<task> <bits-hex>", <len> the payload's byte length, <crc> its CRC32C
// as 8 hex digits. Length-prefix + checksum turn any mid-file damage —
// bit rot, a partially overwritten block, an interleaved foreign line —
// into a detected corruption instead of silently merged garbage.

std::string encode_record(const TaskRecord& record) {
  const std::string payload =
      str(record.task, " ", scenario::hash_hex(value_bits(record.value)));
  return str("r2 ", payload.size(), " ", payload, " ",
             crc_hex(util::crc32c(payload)), "\n");
}

bool parse_payload(const std::string& payload, TaskRecord& out) {
  const std::size_t space = payload.find(' ');
  if (space == std::string::npos || space == 0) return false;
  const std::string task_text = payload.substr(0, space);
  const std::string bits_text = payload.substr(space + 1);
  errno = 0;
  char* end = nullptr;
  const long task = std::strtol(task_text.c_str(), &end, 10);
  if (end == task_text.c_str() || *end != '\0' || errno == ERANGE ||
      task < 0 || task > std::numeric_limits<int>::max()) {
    return false;
  }
  try {
    out.task = static_cast<int>(task);
    out.value = bits_value(scenario::parse_hash_hex(bits_text));
  } catch (const ScenarioError&) {
    return false;
  }
  return true;
}

/// Parses one complete record line. Returns false with `detail` set when
/// the line is damaged (anything but a well-formed v2 record).
bool parse_record_line(const std::string& line, TaskRecord& out,
                       std::string& detail) {
  if (line.rfind("r2 ", 0) != 0) {
    detail = "record unparsable (not v2 syntax)";
    return false;
  }
  const std::size_t len_begin = 3;
  const std::size_t len_end = line.find(' ', len_begin);
  if (len_end == std::string::npos) {
    detail = "v2 record missing length prefix";
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const std::string len_text = line.substr(len_begin, len_end - len_begin);
  const unsigned long len = std::strtoul(len_text.c_str(), &end, 10);
  if (end == len_text.c_str() || *end != '\0' || errno == ERANGE) {
    detail = "v2 record has malformed length prefix";
    return false;
  }
  const std::size_t payload_begin = len_end + 1;
  // Layout check: payload of exactly `len` bytes, one space, 8-hex crc.
  if (payload_begin + len + 1 + 8 != line.size() ||
      line[payload_begin + len] != ' ') {
    detail = str("v2 record length prefix ", len,
                 " does not match the line layout");
    return false;
  }
  const std::string payload = line.substr(payload_begin, len);
  const std::string crc_text = line.substr(payload_begin + len + 1);
  errno = 0;
  const unsigned long crc = std::strtoul(crc_text.c_str(), &end, 16);
  if (end == crc_text.c_str() || *end != '\0' || errno == ERANGE) {
    detail = "v2 record has malformed checksum";
    return false;
  }
  if (static_cast<std::uint32_t>(crc) != util::crc32c(payload)) {
    detail = str("checksum mismatch (stored ", crc_text, ", computed ",
                 crc_hex(util::crc32c(payload)), ")");
    return false;
  }
  if (!parse_payload(payload, out)) {
    detail = "v2 record payload unparsable";
    return false;
  }
  return true;
}

// --- job.meta ----------------------------------------------------------

std::string serialize_meta(const JobSpec& spec) {
  std::ostringstream os;
  os << "dualcast-job v1\n";
  os << "key " << scenario::hash_hex(spec.key) << "\n";
  os << "catalog " << scenario::hash_hex(spec.catalog) << "\n";
  os << "rng " << scenario::to_string(spec.rng) << "\n";
  os << "trials_override " << spec.trials_override << "\n";
  os << "smoke " << (spec.smoke ? 1 : 0) << "\n";
  os << "shard_tasks " << spec.shard_tasks << "\n";
  os << "lease_ttl " << spec.lease_ttl_seconds << "\n";
  for (const std::string& name : spec.scenario_names) {
    os << "scenario " << name << "\n";
  }
  os << "end\n";
  return os.str();
}

/// Integer meta field with a field-level diagnostic — a corrupt job.meta
/// must name what is wrong, not surface a generic std::stoi throw.
int parse_int_field(const std::string& path, const std::string& field,
                    const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
      parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max()) {
    throw ScenarioError(str(path, ": field \"", field, "\": bad integer \"",
                            value, "\""));
  }
  return static_cast<int>(parsed);
}

JobSpec parse_meta(const std::string& text, const std::string& path) {
  JobSpec spec;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "dualcast-job v1") {
    throw ScenarioError(str(path, ": not a dualcast job meta file"));
  }
  bool saw_end = false;
  bool saw_key = false;
  bool saw_catalog = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) {
      throw ScenarioError(str(path, ": malformed meta line \"", line, "\""));
    }
    const std::string field = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    if (field == "key") {
      spec.key = scenario::parse_hash_hex(value);
      saw_key = true;
    } else if (field == "catalog") {
      spec.catalog = scenario::parse_hash_hex(value);
      saw_catalog = true;
    } else if (field == "rng") {
      if (value == "per-node") {
        spec.rng = RngMode::per_node;
      } else if (value == "word") {
        spec.rng = RngMode::word;
      } else {
        throw ScenarioError(str(path, ": unknown rng \"", value, "\""));
      }
    } else if (field == "trials_override") {
      spec.trials_override = parse_int_field(path, field, value);
    } else if (field == "smoke") {
      spec.smoke = value == "1";
    } else if (field == "shard_tasks") {
      spec.shard_tasks = parse_int_field(path, field, value);
    } else if (field == "lease_ttl") {
      spec.lease_ttl_seconds = parse_int_field(path, field, value);
    } else if (field == "scenario") {
      spec.scenario_names.push_back(value);
    } else {
      // Unknown fields from a newer writer are skipped, not fatal, as are
      // the "engine" and "history" lines older writers emitted (the key
      // line still pins what they selected).
    }
  }
  if (!saw_end) {
    throw ScenarioError(str(path, ": truncated meta file (no \"end\")"));
  }
  if (!saw_key) {
    throw ScenarioError(str(path, ": missing required field \"key\""));
  }
  if (!saw_catalog) {
    throw ScenarioError(str(path, ": missing required field \"catalog\""));
  }
  if (spec.scenario_names.empty()) {
    throw ScenarioError(str(path, ": job has no scenarios"));
  }
  if (spec.shard_tasks < 1) {
    throw ScenarioError(str(path, ": shard_tasks must be >= 1"));
  }
  return spec;
}

/// The flat task space: per-scenario offsets computed from the *applied*
/// specs, identical to run_scenarios()'s queue layout.
std::vector<int> compute_task_offsets(const JobSpec& spec) {
  const scenario::RunOptions options = spec.run_options();
  std::vector<int> offsets{0};
  offsets.reserve(spec.scenario_names.size() + 1);
  for (const std::string& name : spec.scenario_names) {
    const scenario::ScenarioSpec applied =
        scenario::apply_options(scenario::scenarios().get(name), options);
    const int tasks = static_cast<int>(applied.sweep.size()) *
                      static_cast<int>(applied.columns.size()) *
                      applied.trials;
    offsets.push_back(offsets.back() + tasks);
  }
  return offsets;
}

// --- leases ------------------------------------------------------------

struct LeaseContent {
  std::string owner;
  std::int64_t since = 0;
  std::int64_t expiry = 0;
  std::int64_t progress = 0;  ///< last progress stamp (0 = pre-progress lease)
};

std::optional<LeaseContent> parse_lease_text(const std::string& text) {
  LeaseContent lease;
  std::istringstream in(text);
  std::string field;
  bool saw_owner = false;
  bool saw_expiry = false;
  while (in >> field) {
    if (field == "owner") {
      if (!(in >> lease.owner)) return std::nullopt;
      saw_owner = true;
    } else if (field == "since") {
      if (!(in >> lease.since)) return std::nullopt;
    } else if (field == "expiry") {
      if (!(in >> lease.expiry)) return std::nullopt;
      saw_expiry = true;
    } else if (field == "progress") {
      if (!(in >> lease.progress)) return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  if (!saw_owner || !saw_expiry) return std::nullopt;
  return lease;
}

std::string lease_content(const std::string& owner, std::int64_t since,
                          std::int64_t expiry, std::int64_t progress) {
  return str("owner ", owner, "\nsince ", since, "\nexpiry ", expiry,
             "\nprogress ", progress, "\n");
}

util::Fs& resolve_fs(const StoreEnv& env) {
  return env.fs != nullptr ? *env.fs : util::real_fs();
}

util::Clock& resolve_clock(const StoreEnv& env) {
  return env.clock != nullptr ? *env.clock : util::system_clock();
}

}  // namespace

scenario::RunOptions JobSpec::run_options() const {
  scenario::RunOptions options;
  options.rng = rng;
  options.trials_override = trials_override;
  options.smoke = smoke;
  return options;
}

JobSpec make_job_spec(
    const std::vector<const scenario::ScenarioSpec*>& selection,
    const scenario::RunOptions& options, int shard_tasks,
    int lease_ttl_seconds) {
  if (selection.empty()) {
    throw ScenarioError("job: empty scenario selection");
  }
  if (shard_tasks < 1) {
    throw ScenarioError("job: shard_tasks must be >= 1");
  }
  JobSpec spec;
  spec.rng = options.rng;
  spec.trials_override = options.trials_override;
  spec.smoke = options.smoke;
  spec.shard_tasks = shard_tasks;
  spec.lease_ttl_seconds = lease_ttl_seconds;
  spec.catalog = scenario::catalog_hash();

  // The job key covers everything that determines the merged bytes: the
  // applied canonical spec of every selected scenario plus the rng mode.
  // (History retention and shard geometry never change results, so they
  // stay out of the identity.) The leading "kernel" names the engine path
  // that older binaries could also set to "scalar": it stays, so the key of
  // every job they created with default options is unchanged and their job
  // directories still open.
  std::uint64_t key = scenario::kFnvOffsetBasis;
  key = scenario::fnv1a64("kernel", key);
  key = scenario::fnv1a64(scenario::to_string(options.rng), key);
  for (const scenario::ScenarioSpec* original : selection) {
    spec.scenario_names.push_back(original->name);
    key = scenario::fnv1a64(
        scenario::canonical_spec_string(
            scenario::apply_options(*original, options)),
        key);
  }
  spec.key = key;
  return spec;
}

JobStore::JobStore(std::string dir, JobSpec spec, const StoreEnv& env)
    : dir_(std::move(dir)),
      spec_(std::move(spec)),
      fs_(&resolve_fs(env)),
      clock_(&resolve_clock(env)) {
  task_offset_ = compute_task_offsets(spec_);
}

JobStore JobStore::create_or_attach(const std::string& dir,
                                    const JobSpec& spec,
                                    const StoreEnv& env) {
  util::Fs& fs = resolve_fs(env);
  const std::string meta_path = join_path(dir, "job.meta");
  if (fs.exists(meta_path)) {
    JobStore store = open(dir, env);
    if (store.spec().key != spec.key) {
      throw ScenarioError(
          str(dir, ": existing job ", scenario::hash_hex(store.spec().key),
              " does not match requested job ", scenario::hash_hex(spec.key),
              " (different selection, options, or catalog)"));
    }
    return store;
  }
  fs.create_dirs(join_path(dir, "shards"));
  fs.create_dirs(join_path(dir, "leases"));
  fs.write_file_atomic(meta_path, serialize_meta(spec));
  return JobStore(dir, spec, env);
}

JobStore JobStore::open(const std::string& dir, const StoreEnv& env) {
  util::Fs& fs = resolve_fs(env);
  const std::string meta_path = join_path(dir, "job.meta");
  std::string text;
  if (!util::read_file_retry_estale(fs, meta_path, text)) {
    throw ScenarioError(str(dir, ": no job here (missing job.meta)"));
  }
  JobSpec stored = parse_meta(text, meta_path);
  // Re-derive the job key from this binary's catalog: every scenario must
  // still exist and canonicalize to what the job was created against, or
  // resumed shards would merge values from a different experiment.
  std::vector<const scenario::ScenarioSpec*> selection;
  for (const std::string& name : stored.scenario_names) {
    selection.push_back(&scenario::scenarios().get(name));
  }
  const JobSpec fresh =
      make_job_spec(selection, stored.run_options(), stored.shard_tasks,
                    stored.lease_ttl_seconds);
  if (fresh.key != stored.key) {
    throw ScenarioError(str(
        meta_path, ": job was created against a different catalog (stored "
        "key ", scenario::hash_hex(stored.key), ", this binary derives ",
        scenario::hash_hex(fresh.key), "); re-submit the job"));
  }
  fs.create_dirs(join_path(dir, "shards"));
  fs.create_dirs(join_path(dir, "leases"));
  return JobStore(dir, std::move(stored), env);
}

int JobStore::shard_count() const {
  return (total_tasks() + spec_.shard_tasks - 1) / spec_.shard_tasks;
}

std::pair<int, int> JobStore::shard_range(int shard) const {
  const int begin = shard * spec_.shard_tasks;
  const int end = begin + spec_.shard_tasks;
  return {begin, end < total_tasks() ? end : total_tasks()};
}

std::string JobStore::shard_log_path(int shard) const {
  return join_path(dir_, str("shards/shard_", shard, ".log"));
}

std::string JobStore::shard_done_path(int shard) const {
  return join_path(dir_, str("shards/shard_", shard, ".done"));
}

std::string JobStore::lease_path(int shard) const {
  return join_path(dir_, str("leases/shard_", shard, ".lease"));
}

std::string ShardScan::damage() const {
  return str("shard ", shard, " record log corrupt at line ", bad_line, ": ",
             detail);
}

ShardScan JobStore::scan_shard_log(int shard) const {
  ShardScan scan;
  scan.shard = shard;
  std::string text;
  if (!util::read_file_retry_estale(*fs_, shard_log_path(shard), text)) {
    return scan;
  }
  std::size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) break;  // torn trailing write: ignore
    ++line_no;
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    TaskRecord record;
    std::string detail;
    if (!parse_record_line(line, record, detail)) {
      // Damage mid-file: stop at the last good watermark and report. The
      // records after the damage (if any) are NOT trusted — a corrupted
      // region throws doubt on everything behind it.
      scan.corrupt = true;
      scan.bad_line = line_no;
      scan.detail = detail;
      scan.records.shrink_to_fit();
      return scan;
    }
    scan.records.push_back(record);
    scan.good_bytes = pos;
  }
  return scan;
}

ShardScan JobStore::fresh_scan_shard_log(int shard) const {
  fs_->invalidate(shard_log_path(shard));
  return scan_shard_log(shard);
}

std::vector<TaskRecord> JobStore::read_shard_records(int shard) const {
  ShardScan scan = fresh_scan_shard_log(shard);
  if (scan.corrupt) {
    throw ScenarioError(str(
        scan.damage(), " — refusing to merge; run `dualcast_bench worker` "
        "(or daemon) against this job to repair the log and recompute from "
        "the last good watermark"));
  }
  return std::move(scan.records);
}

ShardScan JobStore::recover_shard(int shard) {
  // The scan below decides whether to rewrite the log; that decision must
  // be made against the server state, never a stale client view.
  ShardScan scan = fresh_scan_shard_log(shard);
  const std::string log = shard_log_path(shard);
  // Bytes past the good prefix are a torn tail (a crash mid-append: the
  // partial line must go before anyone appends onto it) or mid-file
  // damage.
  if (!scan.corrupt &&
      fs_->file_size(log) <= static_cast<std::int64_t>(scan.good_bytes)) {
    return scan;
  }
  const std::string shards_dir = join_path(dir_, "shards");
  if (scan.corrupt) {
    // The done marker goes first: once the rewrite drops the damaged
    // records, the shard must already read as unfinished.
    fs_->unlink(shard_done_path(shard));
    fs_->sync_dir(shards_dir);
  }
  if (scan.records.empty()) {
    fs_->unlink(log);
    fs_->sync_dir(shards_dir);
  } else {
    std::string content;
    for (const TaskRecord& record : scan.records) {
      content += encode_record(record);
    }
    fs_->write_file_atomic(log, content);
  }
  return scan;
}

std::vector<ShardScan> JobStore::recover_all(const std::string& owner) {
  std::vector<ShardScan> repaired;
  const int shards = shard_count();
  for (int s = 0; s < shards; ++s) {
    // Peek first (a stale read only costs a skipped repair this pass):
    // healthy logs with no torn tail need nothing, and taking a lease per
    // shard just to look would serialize the whole fleet on recovery.
    const ShardScan peek = fresh_scan_shard_log(s);
    const std::int64_t size = fs_->file_size(shard_log_path(s));
    if (!peek.corrupt && size <= static_cast<std::int64_t>(peek.good_bytes)) {
      continue;
    }
    // Damage found: the rewrite replaces the log file, so it runs only
    // under the shard's lease — otherwise a stale snapshot could clobber
    // records a live appender on another machine wrote since.
    if (!try_lease(s, owner)) continue;  // valid holder self-heals
    ShardScan scan = recover_shard(s);
    release_lease(s, owner);
    if (scan.corrupt) repaired.push_back(std::move(scan));
  }
  return repaired;
}

void JobStore::append_record(int shard, const TaskRecord& record) {
  const std::string path = shard_log_path(shard);
  fs_->append(path, encode_record(record));
  fs_->fsync_file(path);
}

void JobStore::mark_shard_done(int shard) {
  fs_->write_file_atomic(shard_done_path(shard), "done\n");
}

bool JobStore::shard_done(int shard) const {
  return fs_->exists(shard_done_path(shard));
}

int JobStore::gc_expired_leases(
    const std::vector<std::string>& stale_owners) {
  int removed = 0;
  const int shards = shard_count();
  for (int s = 0; s < shards; ++s) {
    const std::string path = lease_path(s);
    std::string text;
    if (!util::read_file_retry_estale(*fs_, path, text)) continue;
    auto lease = parse_lease_text(text);
    if (!lease.has_value()) continue;  // garbled: try_lease clears those
    if (lease->expiry > clock_->now_seconds()) continue;  // live: keep
    bool reclaim = shard_done(s);
    for (const std::string& stale : stale_owners) {
      if (lease->owner == stale) reclaim = true;
    }
    if (!reclaim) continue;
    // Re-verify on a fresh read before unlinking: the expiry above may be
    // a stale cached view while the holder's renewal simply had not
    // propagated to this machine yet.
    fs_->invalidate(path);
    if (!util::read_file_retry_estale(*fs_, path, text)) continue;
    lease = parse_lease_text(text);
    if (lease.has_value() && lease->expiry > clock_->now_seconds()) continue;
    if (fs_->unlink(path)) ++removed;
  }
  return removed;
}

bool JobStore::try_lease(int shard, const std::string& owner, bool* stole) {
  if (stole != nullptr) *stole = false;
  const std::string path = lease_path(shard);
  bool evicted_foreign = false;
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::string text;
    if (util::read_file_retry_estale(*fs_, path, text)) {
      const auto lease = parse_lease_text(text);
      if (!lease.has_value()) {
        // Garbled lease: cannot happen through the link-publish protocol
        // below, so treat it as debris and clear it.
        fs_->unlink(path);
      } else if (lease->owner == owner) {
        renew_lease(shard, owner);
        return true;
      } else if (lease->expiry > clock_->now_seconds()) {
        // Valid strictly until its expiry second, so ttl 0 means
        // "instantly stealable" (the crash-recovery tests' configuration).
        return false;
      } else {
        // Steal path. Re-verify on a fresh read before the unlink: the
        // expired lease we just read may be a stale cached view while the
        // holder's heartbeat renewal is simply not visible here yet.
        fs_->invalidate(path);
        std::string current;
        if (util::read_file_retry_estale(*fs_, path, current)) {
          const auto fresh = parse_lease_text(current);
          if (fresh.has_value() && fresh->owner != owner &&
              fresh->expiry > clock_->now_seconds()) {
            return false;  // renewed under our stale view: not stealable
          }
        }
        fs_->unlink(path);  // expired for real: clear it and contend below
        evicted_foreign = true;
      }
    }
    // Acquire: publish a fully-written lease file via link() — atomic
    // create-if-absent with the content already in place, so a concurrent
    // reader can never observe a half-written lease and "steal" a fresh
    // one (the classic NFS-safe lockfile protocol).
    const std::int64_t now = clock_->now_seconds();
    const std::string tmp = str(path, ".", owner, ".tmp");
    fs_->write_file(tmp, lease_content(owner, now,
                                       now + spec_.lease_ttl_seconds, now));
    fs_->fsync_file(tmp);
    const bool linked = fs_->link(tmp, path);
    fs_->unlink(tmp);
    if (!linked) continue;  // lost the race; reassess the new holder
    // Verify-after-acquire: a stealer that read the *previous* expired
    // lease may unlink ours in its clear window. Losing here is safe —
    // tasks are idempotent — but only one worker should keep the shard.
    // Our own link() dropped any cached entry, so this read is fresh.
    std::string mine;
    if (!util::read_file_retry_estale(*fs_, path, mine)) return false;
    const auto confirmed = parse_lease_text(mine);
    const bool won = confirmed.has_value() && confirmed->owner == owner;
    if (won && evicted_foreign && stole != nullptr) *stole = true;
    return won;
  }
  return false;
}

void JobStore::renew_lease(int shard, const std::string& owner) {
  const std::string path = lease_path(shard);
  // The ownership check below gates a republish: renewing off a stale
  // view that still shows our old lease would overwrite a thief's live
  // one, leaving two workers each believing they hold the shard. Read
  // fresh; a heartbeat can afford the extra revalidation.
  fs_->invalidate(path);
  std::string text;
  if (!util::read_file_retry_estale(*fs_, path, text)) return;
  const auto lease = parse_lease_text(text);
  if (!lease.has_value() || lease->owner != owner) return;
  const std::int64_t now = clock_->now_seconds();
  const std::int64_t since = lease->since != 0 ? lease->since : now;
  // The progress stamp tracks renewals: the heartbeat only renews after
  // the worker advanced its record watermark, so renewal time is a faithful
  // (conservative) last-progress bound visible to every fleet member.
  fs_->write_file_atomic(
      path, lease_content(owner, since, now + spec_.lease_ttl_seconds, now));
}

void JobStore::release_lease(int shard, const std::string& owner) {
  const std::string path = lease_path(shard);
  // Fresh read for the same reason as renew_lease: unlinking on a stale
  // view that still shows our lease would destroy a thief's live one.
  fs_->invalidate(path);
  std::string text;
  if (!util::read_file_retry_estale(*fs_, path, text)) return;
  const auto lease = parse_lease_text(text);
  if (lease.has_value() && lease->owner == owner) fs_->unlink(path);
}

std::vector<ShardState> JobStore::scan() const {
  std::vector<ShardState> out;
  const int shards = shard_count();
  const std::int64_t now = clock_->now_seconds();
  out.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    ShardState state;
    state.index = s;
    std::tie(state.begin, state.end) = shard_range(s);
    const ShardScan scan = scan_shard_log(s);
    state.corrupt = scan.corrupt;
    std::vector<bool> seen(static_cast<std::size_t>(state.end - state.begin),
                           false);
    for (const TaskRecord& record : scan.records) {
      if (record.task < state.begin || record.task >= state.end) continue;
      const std::size_t i =
          static_cast<std::size_t>(record.task - state.begin);
      if (!seen[i]) {
        seen[i] = true;
        ++state.completed;
      }
    }
    state.done = shard_done(s);
    std::string text;
    if (util::read_file_retry_estale(*fs_, lease_path(s), text)) {
      if (const auto lease = parse_lease_text(text)) {
        state.leased = true;
        state.lease_owner = lease->owner;
        state.lease_since = lease->since;
        state.lease_expiry = lease->expiry;
        state.lease_age = lease->since > 0 ? now - lease->since : -1;
        state.lease_progress_age =
            lease->progress > 0 ? now - lease->progress : -1;
        state.lease_stale = lease->expiry <= now;
      }
    }
    out.push_back(std::move(state));
  }
  return out;
}

std::vector<LeaseState> JobStore::scan_leases() const {
  std::vector<LeaseState> out;
  const std::int64_t now = clock_->now_seconds();
  const int shards = shard_count();
  for (int s = 0; s < shards; ++s) {
    std::string text;
    if (!util::read_file_retry_estale(*fs_, lease_path(s), text)) continue;
    const auto lease = parse_lease_text(text);
    if (!lease.has_value()) continue;
    LeaseState state;
    state.shard = s;
    state.owner = lease->owner;
    state.since = lease->since;
    state.expiry = lease->expiry;
    state.progress = lease->progress;
    state.progress_age = lease->progress > 0 ? now - lease->progress : -1;
    state.expired = lease->expiry <= now;
    out.push_back(std::move(state));
  }
  return out;
}

}  // namespace dualcast::service
