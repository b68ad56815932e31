#pragma once

// Shared scaffolding of the service suites. Each suite registers its own
// copy of one mini scenario under its own name and seed, and makes its
// temp directories under its own prefix, so suites running in parallel
// never share a directory and no suite's rows depend on another's.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "service/service.hpp"

namespace dualcast::testing {

struct MiniService {
  std::string name;        ///< registry name of this suite's scenario
  std::uint64_t seed = 0;  ///< its base seed
  std::string dir_prefix;  ///< temp-directory prefix, unique per suite

  /// Two columns over dual_clique(8) and dual_clique(12), three trials
  /// each: 12 flat tasks. Registered on first use.
  const scenario::ScenarioSpec& scenario() const {
    if (!scenario::scenarios().contains(name)) {
      scenario::ScenarioSpec spec;
      spec.name = name;
      spec.title = name;
      spec.topology = "dual_clique({x})";
      spec.problem = "global(1)";
      spec.sweep = {8, 12};
      spec.trials = 3;
      spec.base_seed = seed;
      spec.max_rounds = "200*n";
      spec.columns = {
          {"decay+iid", "decay_global(permuted,persistent)", "iid(0.5)", ""},
          {"robin+collider", "round_robin", "collider", ""},
      };
      scenario::scenarios().add(spec);
    }
    return scenario::scenarios().get(name);
  }

  /// An empty directory `<prefix><tag>` under the test temp dir.
  std::string fresh_dir(const std::string& tag) const {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / (dir_prefix + tag);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
  }

  /// The scenario's single-process rows under `options`.
  std::vector<std::string> reference_rows(
      const scenario::RunOptions& options = {}) const {
    std::vector<std::string> rows;
    for (const scenario::ScenarioResult& result :
         scenario::run_scenarios({&scenario()}, options)) {
      scenario::append_json_rows(result, rows);
    }
    return rows;
  }

  /// A job over the scenario; `trials` > 0 overrides its three trials.
  service::JobSpec job(int shard_tasks, int lease_ttl_seconds,
                       int trials = 0) const {
    scenario::RunOptions options;
    options.trials_override = trials;
    return service::make_job_spec({&scenario()}, options, shard_tasks,
                                  lease_ttl_seconds);
  }

  /// Creates `job(...)` as `jobs_dir`/`name`; returns its directory.
  std::string drop_job(const std::string& jobs_dir, const std::string& name,
                       int trials = 0, int shard_tasks = 4,
                       int lease_ttl_seconds = 60) const {
    const std::string dir = jobs_dir + "/" + name;
    service::JobStore::create_or_attach(
        dir, job(shard_tasks, lease_ttl_seconds, trials));
    return dir;
  }

  /// The merge of the job in `job_dir` must reproduce the reference rows
  /// of its run options; a refused merge is a failure, not the end of the
  /// test.
  void expect_reference_merge(const std::string& job_dir) const {
    service::JobStore store = service::JobStore::open(job_dir);
    service::JobRuntime runtime(store);
    try {
      EXPECT_EQ(service::merge_job(store, runtime, nullptr),
                reference_rows(store.spec().run_options()))
          << "divergent merge of " << job_dir;
    } catch (const scenario::ScenarioError& error) {
      ADD_FAILURE() << "merge of " << job_dir << " failed: " << error.what();
    }
  }
};

}  // namespace dualcast::testing
