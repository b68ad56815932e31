#include "service/service.hpp"

#include <unistd.h>

#include <memory>
#include <ostream>
#include <thread>

#include "analysis/trials.hpp"
#include "util/strfmt.hpp"

namespace dualcast::service {
namespace {

using scenario::ScenarioError;

std::string cache_description(const scenario::ScenarioSpec& applied,
                              const scenario::RunOptions& options) {
  return str("catalog ", scenario::hash_hex(scenario::catalog_hash()),
             "\nrng ", scenario::to_string(options.rng), "\nspec ",
             scenario::canonical_spec_string(applied), "\n");
}

/// Runs `workers` in-process lease loops against one store/runtime (each
/// opens its own JobStore view so appends never share an fd).
void run_worker_pool(const JobStore& store, const JobRuntime& runtime,
                     int workers, const StoreEnv& env, std::ostream* out) {
  const auto worker_body = [&](int index) {
    JobStore view = JobStore::open(store.dir(), env);
    WorkerOptions options;
    options.owner =
        str("pid", static_cast<long>(::getpid()), ".t", index);
    run_worker(view, runtime, options);
  };
  if (workers <= 1) {
    worker_body(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) pool.emplace_back(worker_body, t);
  for (std::thread& t : pool) t.join();
  if (out != nullptr) {
    *out << "worker pool (" << workers << " threads) drained\n";
  }
}

}  // namespace

std::vector<std::string> merge_job(JobStore& store, JobRuntime& runtime,
                                   ResultCache* cache, std::ostream* log) {
  const std::vector<int>& offsets = runtime.offsets();
  std::vector<scenario::ScenarioPlan>& plans = runtime.plans();
  const int total = store.total_tasks();
  if (total != runtime.total_tasks()) {
    throw ScenarioError(
        str("merge: store has ", total, " tasks but runtime prepared ",
            runtime.total_tasks()));
  }
  std::vector<bool> seen(static_cast<std::size_t>(total), false);
  std::vector<double> values(static_cast<std::size_t>(total), 0.0);
  int recorded = 0;
  for (int shard = 0; shard < store.shard_count(); ++shard) {
    const auto [begin, end] = store.shard_range(shard);
    for (const TaskRecord& record : store.read_shard_records(shard)) {
      if (record.task < begin || record.task >= end) {
        throw ScenarioError(str("merge: shard ", shard,
                                " contains out-of-range task ", record.task));
      }
      const std::size_t i = static_cast<std::size_t>(record.task);
      if (seen[i]) {
        // Duplicate records happen (lease steal races); identical values
        // are benign, disagreement means the job's inputs drifted.
        if (values[i] != record.value) {
          throw ScenarioError(
              str("merge: conflicting records for task ", record.task,
                  " (", values[i], " vs ", record.value,
                  "); the job directory mixes different experiments"));
        }
        continue;
      }
      seen[i] = true;
      values[i] = record.value;
      ++recorded;
    }
  }
  if (recorded != total) {
    throw ScenarioError(str("merge: job incomplete — ", recorded, "/",
                            total,
                            " tasks recorded; run more workers first"));
  }

  std::vector<std::string> rows;
  for (std::size_t s = 0; s < plans.size(); ++s) {
    scenario::ScenarioPlan& plan = plans[s];
    for (int local = 0; local < plan.tasks(); ++local) {
      const scenario::PlanTask at = scenario::split_plan_task(
          local, plan.n_cols(), plan.spec.trials);
      plan.raw[static_cast<std::size_t>(at.point)][static_cast<std::size_t>(
          at.col)][static_cast<std::size_t>(at.trial)] =
          values[static_cast<std::size_t>(offsets[s] + local)];
    }
    std::vector<std::string> scenario_rows;
    scenario::ScenarioResult result = scenario::assemble_plan(plan);
    scenario::append_json_rows(result, scenario_rows);
    if (cache != nullptr) {
      try {
        cache->store(result_cache_key(plan.spec, runtime.options()),
                     scenario_rows,
                     cache_description(plan.spec, runtime.options()));
      } catch (const util::IoError& error) {
        // Read-only / failing cache storage must never block a merge:
        // warn once and finish uncached.
        if (log != nullptr) {
          *log << "warning: result cache unwritable (" << error.what()
               << "); continuing without caching\n";
        }
        cache = nullptr;
      }
    }
    rows.insert(rows.end(), scenario_rows.begin(), scenario_rows.end());
  }
  return rows;
}

ServeSummary serve(
    const std::vector<const scenario::ScenarioSpec*>& selection,
    const scenario::RunOptions& run_options, const ServeOptions& options) {
  if (selection.empty()) throw ScenarioError("serve: empty selection");
  const std::uint64_t trials_before = trials_executed();
  ServeSummary summary;
  summary.scenarios = static_cast<int>(selection.size());

  // Open the cache once for the whole serve; an unopenable cache (e.g. a
  // read-only directory) degrades to compute-without-cache with one
  // warning rather than failing the run.
  std::unique_ptr<ResultCache> cache;
  if (!options.cache_dir.empty()) {
    try {
      cache = std::make_unique<ResultCache>(options.cache_dir,
                                            options.cache_max_bytes,
                                            options.env.fs,
                                            options.env.clock);
    } catch (const util::IoError& error) {
      if (options.out != nullptr) {
        *options.out << "warning: cannot open result cache "
                     << options.cache_dir << " (" << error.what()
                     << "); continuing without caching\n";
      }
    }
  }

  // Cache pass: per-scenario lookups against the applied specs.
  std::vector<std::optional<std::vector<std::string>>> cached(
      selection.size());
  if (cache != nullptr) {
    for (std::size_t i = 0; i < selection.size(); ++i) {
      cached[i] = cache->lookup(result_cache_key(
          scenario::apply_options(*selection[i], run_options), run_options));
    }
  }

  std::vector<const scenario::ScenarioSpec*> to_compute;
  for (std::size_t i = 0; i < selection.size(); ++i) {
    if (!cached[i].has_value() || options.verify_cache) {
      to_compute.push_back(selection[i]);
    } else {
      ++summary.from_cache;
    }
  }

  std::vector<std::vector<std::string>> computed_rows;
  if (!to_compute.empty()) {
    const JobSpec job = make_job_spec(to_compute, run_options,
                                      options.shard_tasks,
                                      options.lease_ttl_seconds);
    summary.job_key = job.key;
    summary.job_dir =
        options.job_dir.empty()
            ? str(".dualcast-jobs/", scenario::hash_hex(job.key))
            : options.job_dir;
    JobStore store =
        JobStore::create_or_attach(summary.job_dir, job, options.env);
    if (options.out != nullptr) {
      *options.out << "job " << scenario::hash_hex(job.key) << " in "
                   << summary.job_dir << ": " << store.total_tasks()
                   << " tasks over " << store.shard_count() << " shards\n";
    }
    if (options.workers <= 0) {
      summary.pending = true;
      if (options.out != nullptr) {
        print_job_status(store, *options.out);
        *options.out
            << "submitted; run `dualcast_bench worker --job-dir "
            << summary.job_dir << "` (any number of processes), then "
            << "`dualcast_bench merge --job-dir " << summary.job_dir
            << "`\n";
      }
      return summary;
    }
    JobRuntime runtime(store);
    run_worker_pool(store, runtime, options.workers, options.env,
                    options.out);
    std::vector<std::string> merged =
        merge_job(store, runtime, cache.get(), options.out);
    summary.computed = static_cast<int>(to_compute.size());
    // Split the merged rows back per scenario for selection-order
    // composition with cache hits below.
    std::size_t cursor = 0;
    for (const scenario::ScenarioPlan& plan : runtime.plans()) {
      const std::size_t count =
          static_cast<std::size_t>(plan.points.size()) *
          static_cast<std::size_t>(plan.n_cols());
      computed_rows.emplace_back(merged.begin() + cursor,
                                 merged.begin() + cursor + count);
      cursor += count;
    }
  }

  // Compose in selection order; verify recomputed rows against any cache
  // hit they shadow.
  std::size_t next_computed = 0;
  int verified = 0;
  for (std::size_t i = 0; i < selection.size(); ++i) {
    const bool computed_this =
        !cached[i].has_value() || options.verify_cache;
    if (computed_this) {
      const std::vector<std::string>& rows = computed_rows[next_computed++];
      if (options.verify_cache && cached[i].has_value()) {
        if (*cached[i] != rows) {
          throw ScenarioError(
              str("cache verification FAILED for scenario \"",
                  selection[i]->name,
                  "\": cached rows differ from live recompute"));
        }
        ++verified;
      }
      summary.rows.insert(summary.rows.end(), rows.begin(), rows.end());
    } else {
      summary.rows.insert(summary.rows.end(), cached[i]->begin(),
                          cached[i]->end());
    }
  }

  if (!options.json_path.empty() &&
      !scenario::write_json_rows_file(options.json_path, summary.rows)) {
    throw ScenarioError(str("cannot write ", options.json_path));
  }
  summary.trials_run = trials_executed() - trials_before;
  if (options.out != nullptr) {
    *options.out << "served " << summary.scenarios << " scenario(s): "
                 << summary.from_cache << " from cache, " << summary.computed
                 << " computed; trials executed: " << summary.trials_run
                 << "\n";
    if (verified > 0) {
      *options.out << "cache verification passed for " << verified
                   << " cached scenario(s)\n";
    }
    if (!options.json_path.empty()) {
      *options.out << "wrote " << summary.rows.size() << " result rows to "
                   << options.json_path << "\n";
    }
  }
  return summary;
}

void print_job_status(const JobStore& store, std::ostream& out) {
  const JobSpec& spec = store.spec();
  out << "job " << scenario::hash_hex(spec.key) << " in " << store.dir()
      << "\n";
  out << "  catalog " << scenario::hash_hex(spec.catalog) << ", rng "
      << scenario::to_string(spec.rng) << ", trials_override "
      << spec.trials_override << (spec.smoke ? ", smoke" : "") << "\n";
  out << "  scenarios (" << spec.scenario_names.size() << "):";
  for (const std::string& name : spec.scenario_names) out << " " << name;
  out << "\n";
  // Lease age/staleness come from the scan itself (classified against the
  // store's clock at scan time), so this renders deterministically under a
  // FakeClock instead of re-deriving from wall time here.
  const std::vector<ShardState> shards = store.scan();
  int completed_tasks = 0;
  int done_shards = 0;
  for (const ShardState& shard : shards) {
    completed_tasks += shard.completed;
    if (shard.done) ++done_shards;
    out << "  shard " << shard.index << " [" << shard.begin << ","
        << shard.end << "): " << shard.completed << "/"
        << (shard.end - shard.begin);
    if (shard.done) out << " done";
    if (shard.corrupt) out << " CORRUPT";
    if (shard.leased) {
      out << " leased by " << shard.lease_owner << " (age ";
      if (shard.lease_age >= 0) {
        out << shard.lease_age << "s";
      } else {
        out << "?";
      }
      if (shard.lease_progress_age >= 0) {
        out << ", progress " << shard.lease_progress_age << "s ago";
      }
      out << ", expiry " << shard.lease_expiry << ")";
      if (shard.lease_stale) out << " STALE";
    }
    out << "\n";
  }
  out << "  progress: " << completed_tasks << "/" << store.total_tasks()
      << " tasks, " << done_shards << "/" << shards.size() << " shards done"
      << "\n";
}

}  // namespace dualcast::service
