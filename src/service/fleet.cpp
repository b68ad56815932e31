#include "service/fleet.hpp"

#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>

#include "util/strfmt.hpp"

namespace dualcast::service {
namespace {

using scenario::ScenarioError;

/// Member ids double as file names; anything path-hostile is flattened so
/// a creative owner token cannot escape the fleet directory.
std::string sanitize_id(const std::string& id) {
  std::string out = id.empty() ? std::string("anon") : id;
  for (char& c : out) {
    if (c == '/' || c == '\\' || c == '.') c = '_';
  }
  return out;
}

std::string serialize_member(const MemberRecord& record) {
  std::ostringstream os;
  os << "dualcast-member v1\n";
  os << "id " << record.id << "\n";
  os << "pid " << record.pid << "\n";
  if (!record.host.empty()) os << "host " << record.host << "\n";
  os << "started " << record.started << "\n";
  os << "heartbeat " << record.heartbeat << "\n";
  os << "ttl " << record.ttl_seconds << "\n";
  os << "cycles " << record.cycles << "\n";
  os << "tasks " << record.tasks << "\n";
  os << "shards " << record.shards << "\n";
  os << "steals " << record.steals << "\n";
  if (!record.pressure.empty()) os << "pressure " << record.pressure << "\n";
  if (record.free_bytes >= 0) os << "free_bytes " << record.free_bytes << "\n";
  os << "end\n";
  return os.str();
}

bool parse_member(const std::string& text, MemberRecord& out) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "dualcast-member v1") return false;
  bool saw_end = false;
  bool saw_id = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) return false;
    const std::string field = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    try {
      if (field == "id") {
        out.id = value;
        saw_id = true;
      } else if (field == "pid") {
        out.pid = std::stol(value);
      } else if (field == "host") {
        out.host = value;
      } else if (field == "started") {
        out.started = std::stoll(value);
      } else if (field == "heartbeat") {
        out.heartbeat = std::stoll(value);
      } else if (field == "ttl") {
        out.ttl_seconds = std::stoi(value);
      } else if (field == "cycles") {
        out.cycles = std::stoll(value);
      } else if (field == "tasks") {
        out.tasks = std::stoll(value);
      } else if (field == "shards") {
        out.shards = std::stoll(value);
      } else if (field == "steals") {
        out.steals = std::stoll(value);
      } else if (field == "pressure") {
        out.pressure = value;
      } else if (field == "free_bytes") {
        out.free_bytes = std::stoll(value);
      }
      // Unknown fields are skipped, not fatal: a newer writer's, and an
      // older daemon's placement, cores and load lines.
    } catch (const std::exception&) {
      return false;
    }
  }
  return saw_end && saw_id;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Fixed three-decimal rate so JSON output is byte-deterministic under a
/// frozen clock (ostream double formatting varies with magnitude).
std::string format_rate(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", rate);
  return std::string(buf);
}

double shards_per_second(const MemberRecord& record, std::int64_t now) {
  const std::int64_t uptime = now - record.started;
  return uptime > 0
             ? static_cast<double>(record.shards) / static_cast<double>(uptime)
             : static_cast<double>(record.shards);
}

}  // namespace

std::vector<std::string> job_dirs(const std::string& jobs_dir, util::Fs& fs) {
  std::vector<std::string> out;
  for (const std::string& name : fs.list(jobs_dir)) {
    if (name == "fleet") continue;
    const std::string dir = str(jobs_dir, "/", name);
    if (fs.exists(str(dir, "/job.meta"))) out.push_back(dir);
  }
  return out;
}

const char* to_string(DiskPressure pressure) {
  switch (pressure) {
    case DiskPressure::ok: return "ok";
    case DiskPressure::cache_shed: return "cache-shed";
    case DiskPressure::no_new_claims: return "no-new-claims";
    case DiskPressure::parked: return "parked";
  }
  return "?";
}

DiskPressure classify_disk_pressure(std::int64_t free_bytes,
                                    std::int64_t min_free_bytes) {
  if (free_bytes < 0 || min_free_bytes <= 0) return DiskPressure::ok;
  if (free_bytes < min_free_bytes) return DiskPressure::parked;
  if (free_bytes < 2 * min_free_bytes) return DiskPressure::no_new_claims;
  if (free_bytes < 4 * min_free_bytes) return DiskPressure::cache_shed;
  return DiskPressure::ok;
}

FleetRegistry::FleetRegistry(const std::string& jobs_dir, const StoreEnv& env)
    : fleet_dir_(str(jobs_dir, "/fleet")),
      fs_(&env.resolve_fs()),
      clock_(&env.resolve_clock()) {}

std::string FleetRegistry::member_path(const std::string& id) const {
  return str(fleet_dir_, "/", sanitize_id(id));
}

void FleetRegistry::publish(MemberRecord record) {
  fs_->create_dirs(fleet_dir_);
  record.heartbeat = clock_->now_seconds();
  if (record.started == 0) record.started = record.heartbeat;
  fs_->write_file_atomic(member_path(record.id), serialize_member(record));
}

void FleetRegistry::remove(const std::string& id) {
  fs_->unlink(member_path(id));
}

std::vector<MemberState> FleetRegistry::scan() const {
  std::vector<MemberState> out;
  const std::int64_t now = clock_->now_seconds();
  for (const std::string& name : fs_->list(fleet_dir_)) {
    std::string text;
    if (!util::read_file_retry_estale(*fs_, str(fleet_dir_, "/", name),
                                      text)) {
      continue;
    }
    MemberState state;
    if (!parse_member(text, state.record)) continue;
    state.age = now - state.record.heartbeat;
    state.stale = state.record.heartbeat + state.record.ttl_seconds <= now;
    out.push_back(std::move(state));
  }
  return out;
}

std::vector<std::string> FleetRegistry::reap_stale() {
  std::vector<std::string> reaped;
  for (const MemberState& member : scan()) {
    if (!member.stale) continue;
    // Re-verify on a fresh read before the unlink: on a shared mount the
    // stale classification above may rest on a cached member file whose
    // heartbeat renewal simply had not reached this machine yet. (A false
    // reap is only an observability wound — the daemon republishes on its
    // next beat — but there is no reason to inflict it.)
    const std::string path = member_path(member.record.id);
    fs_->invalidate(path);
    std::string text;
    MemberRecord fresh;
    if (util::read_file_retry_estale(*fs_, path, text) &&
        parse_member(text, fresh) &&
        fresh.heartbeat + fresh.ttl_seconds > clock_->now_seconds()) {
      continue;  // renewed under our stale view
    }
    fs_->unlink(path);
    reaped.push_back(member.record.id);
  }
  return reaped;
}

GcReport gc_sweep(const std::string& jobs_dir, const StoreEnv& env,
                  std::ostream* log) {
  GcReport report;
  // Stale daemons first: their ids feed the per-job lease reclamation, so
  // debris left by a kill -9'd daemon clears in the same pass that
  // detects its death.
  FleetRegistry fleet(jobs_dir, env);
  report.reaped_ids = fleet.reap_stale();
  report.members_reaped = static_cast<int>(report.reaped_ids.size());
  if (log != nullptr) {
    for (const std::string& id : report.reaped_ids) {
      *log << "gc: reaped stale fleet member " << id << "\n";
    }
  }

  for (const std::string& dir : job_dirs(jobs_dir, env.resolve_fs())) {
    try {
      JobStore store = JobStore::open(dir, env);
      ++report.jobs_swept;
      const int leases = store.gc_expired_leases(report.reaped_ids);
      report.leases_reclaimed += leases;
      if (log != nullptr && leases > 0) {
        *log << "gc: job " << dir << ": reclaimed " << leases
             << " expired lease(s)\n";
      }
    } catch (const ScenarioError& error) {
      if (log != nullptr) {
        *log << "gc: skipping job " << dir << ": " << error.what() << "\n";
      }
    } catch (const util::IoError& error) {
      if (log != nullptr) {
        *log << "gc: IO trouble on job " << dir << ": " << error.what()
             << "\n";
      }
    }
  }
  return report;
}

namespace {

/// One job directory's row of the fleet view.
struct JobView {
  std::string dir;
  bool readable = false;
  std::string error;  ///< why the job could not be read
  std::string key;
  int tasks_total = 0;
  int tasks_completed = 0;
  std::size_t shards_total = 0;
  int shards_done = 0;
  int shards_corrupt = 0;
  int leases_live = 0;
  int leases_stale = 0;
  std::vector<LeaseState> leases;
};

struct MemberView {
  MemberState state;
  int leases_held = 0;  ///< across every job
};

/// Everything the fleet view shows, read once; the text and JSON
/// renderings both draw from it.
struct FleetView {
  std::int64_t now = 0;
  std::vector<JobView> jobs;        ///< sorted by fs.list
  std::vector<MemberView> members;  ///< sorted by fs.list
  /// Lease owners with no membership file (plain `worker` processes, or
  /// daemons whose stale entry was already reaped) and their lease
  /// counts, sorted by owner.
  std::map<std::string, int> non_members;
};

FleetView gather_fleet_view(const std::string& jobs_dir, const StoreEnv& env) {
  FleetView view;
  view.now = env.resolve_clock().now_seconds();
  std::map<std::string, int> held;  // leases per owner, across every job
  for (const std::string& dir : job_dirs(jobs_dir, env.resolve_fs())) {
    JobView& job = view.jobs.emplace_back();
    job.dir = dir;
    try {
      const JobStore store = JobStore::open(dir, env);
      const std::vector<ShardState> shards = store.scan();
      for (const ShardState& shard : shards) {
        job.tasks_completed += shard.completed;
        if (shard.done) ++job.shards_done;
        if (shard.corrupt) ++job.shards_corrupt;
        if (const std::optional<LeaseState>& lease = shard.lease) {
          job.leases.push_back(*lease);
          ++held[lease->owner];
          ++(lease->expired ? job.leases_stale : job.leases_live);
        }
      }
      job.shards_total = shards.size();
      job.key = scenario::hash_hex(store.spec().key);
      job.tasks_total = store.total_tasks();
      job.readable = true;
    } catch (const std::exception& error) {
      job.error = error.what();
    }
  }
  for (MemberState& member : FleetRegistry(jobs_dir, env).scan()) {
    const int leases = held[member.record.id];
    held.erase(member.record.id);
    view.members.push_back({std::move(member), leases});
  }
  view.non_members = std::move(held);
  return view;
}

}  // namespace

void print_fleet_status(const std::string& jobs_dir, const StoreEnv& env,
                        std::ostream& out) {
  const FleetView view = gather_fleet_view(jobs_dir, env);
  const std::int64_t now = view.now;
  out << "fleet of " << jobs_dir << ": " << view.members.size()
      << " member(s), " << view.jobs.size() << " job(s)\n";
  for (const MemberView& member : view.members) {
    const MemberRecord& r = member.state.record;
    out << "  daemon " << r.id << " ["
        << (member.state.stale ? "STALE" : "live") << "]: pid " << r.pid;
    if (!r.host.empty()) out << ", host " << r.host;
    out << ", up " << now - r.started << "s, heartbeat " << member.state.age
        << "s ago (ttl " << r.ttl_seconds << "s), " << r.tasks << " tasks, "
        << r.shards << " shards (" << shards_per_second(r, now) << "/s), "
        << r.steals << " steal(s), "
        << "pressure " << (r.pressure.empty() ? "ok" : r.pressure);
    if (r.free_bytes >= 0) out << " (free " << r.free_bytes << "B)";
    out << ", " << member.leases_held << " lease(s) held\n";
  }
  for (const auto& [owner, count] : view.non_members) {
    out << "  non-member owner " << owner << ": " << count
        << " lease(s) held\n";
  }
  for (const JobView& job : view.jobs) {
    if (job.readable) {
      out << "  job " << job.key << ": " << job.tasks_completed << "/"
          << job.tasks_total << " tasks, " << job.shards_done << "/"
          << job.shards_total << " shards done, " << job.leases_live
          << " leased";
      if (job.leases_stale > 0) out << " (+" << job.leases_stale << " stale)";
      if (job.shards_corrupt > 0) {
        out << ", " << job.shards_corrupt << " CORRUPT";
      }
    } else {
      out << "  unreadable (" << job.error << ")";
    }
    out << "  (" << job.dir << ")\n";
    // Per-lease detail: the progress age is the fail-slow telltale — a
    // live lease whose progress stopped advancing is a stalled holder one
    // TTL away from being stolen from.
    for (const LeaseState& lease : job.leases) {
      out << "    lease shard " << lease.shard << ": owner " << lease.owner
          << ", age " << lease.age << "s";
      if (lease.progress_age >= 0) {
        out << ", progress " << lease.progress_age << "s ago";
      } else {
        out << ", progress unknown";
      }
      if (lease.expired) out << " [EXPIRED]";
      out << "\n";
    }
  }
}

std::string fleet_status_json(const std::string& jobs_dir,
                              const StoreEnv& env) {
  // The view is sorted by construction (fs.list orders jobs and members,
  // std::map orders lease owners), so a frozen clock makes the document
  // byte-deterministic.
  const FleetView view = gather_fleet_view(jobs_dir, env);
  const std::int64_t now = view.now;
  std::ostringstream os;
  os << "{\"jobs_dir\":\"" << json_escape(jobs_dir) << "\",\"now\":" << now
     << ",\"members\":[";
  bool first = true;
  for (const MemberView& member : view.members) {
    const MemberRecord& r = member.state.record;
    os << (first ? "" : ",") << "{\"id\":\"" << json_escape(r.id)
       << "\",\"live\":" << (member.state.stale ? "false" : "true")
       << ",\"pid\":" << r.pid << ",\"host\":\"" << json_escape(r.host)
       << "\",\"uptime_seconds\":" << now - r.started
       << ",\"heartbeat_age_seconds\":" << member.state.age
       << ",\"ttl_seconds\":" << r.ttl_seconds << ",\"cycles\":" << r.cycles
       << ",\"tasks\":" << r.tasks << ",\"shards\":" << r.shards
       << ",\"shards_per_second\":" << format_rate(shards_per_second(r, now))
       << ",\"steals\":" << r.steals << ",\"pressure\":\""
       << json_escape(r.pressure.empty() ? "ok" : r.pressure)
       << "\",\"free_bytes\":" << r.free_bytes
       << ",\"leases_held\":" << member.leases_held << "}";
    first = false;
  }
  os << "],\"non_member_owners\":[";
  first = true;
  for (const auto& [owner, count] : view.non_members) {
    os << (first ? "" : ",") << "{\"owner\":\"" << json_escape(owner)
       << "\",\"leases_held\":" << count << "}";
    first = false;
  }
  os << "],\"jobs\":[";
  first = true;
  for (const JobView& job : view.jobs) {
    os << (first ? "" : ",") << "{\"dir\":\"" << json_escape(job.dir) << "\"";
    first = false;
    if (!job.readable) {
      os << ",\"error\":\"" << json_escape(job.error) << "\"}";
      continue;
    }
    os << ",\"key\":\"" << job.key << "\",\"tasks_total\":" << job.tasks_total
       << ",\"tasks_completed\":" << job.tasks_completed
       << ",\"shards_total\":" << job.shards_total
       << ",\"shards_done\":" << job.shards_done
       << ",\"leases_live\":" << job.leases_live
       << ",\"leases_stale\":" << job.leases_stale
       << ",\"shards_corrupt\":" << job.shards_corrupt
       << ",\"leases\":[";
    bool first_lease = true;
    for (const LeaseState& lease : job.leases) {
      os << (first_lease ? "" : ",") << "{\"shard\":" << lease.shard
         << ",\"owner\":\"" << json_escape(lease.owner)
         << "\",\"age_seconds\":" << lease.age
         << ",\"progress_age_seconds\":" << lease.progress_age
         << ",\"expired\":" << (lease.expired ? "true" : "false") << "}";
      first_lease = false;
    }
    os << "]}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace dualcast::service
