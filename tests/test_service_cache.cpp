// Result cache: a repeated identical request is served entirely from the
// cache with zero trial recomputation (proved by the global trial
// counter), cache hits are byte-identical to live recomputes, the cache
// key is sensitive to every input that selects sample paths, and a byte
// budget evicts least-recently-used entries (with lookups refreshing
// recency) while survivors keep hitting with zero recompute.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "analysis/trials.hpp"
#include "service/service.hpp"
#include "service_support.hpp"
#include "util/clock.hpp"

namespace dualcast::service {
namespace {

namespace fs = std::filesystem;
using scenario::RunOptions;
using scenario::ScenarioSpec;

const dualcast::testing::MiniService mini{"svc-test/cache-mini", 33,
                                         "dualcast_"};
// A second scenario, distinct only in name and seed — two different cache
// entries for the eviction tests.
const dualcast::testing::MiniService mini_b{"svc-test/cache-mini-b", 34,
                                           "dualcast_"};

TEST(ServiceCache, RepeatRequestServedFromCacheWithZeroTrials) {
  const std::string cache_dir = mini.fresh_dir("cache_repeat");
  ServeOptions options;
  options.cache_dir = cache_dir;
  options.workers = 2;
  options.shard_tasks = 4;

  // First serve computes (sharded) and populates the cache.
  options.job_dir = mini.fresh_dir("cache_repeat_job1");
  const ServeSummary first = serve({&mini.scenario()}, {}, options);
  EXPECT_EQ(first.computed, 1);
  EXPECT_EQ(first.from_cache, 0);
  EXPECT_EQ(first.trials_run, 12u);
  ASSERT_EQ(first.rows.size(), 4u);

  // The identical request again: 100% cache, zero trials executed — the
  // trial counter is the proof there was no silent recomputation.
  options.job_dir = mini.fresh_dir("cache_repeat_job2");
  const std::uint64_t trials_before = trials_executed();
  const ServeSummary second = serve({&mini.scenario()}, {}, options);
  EXPECT_EQ(second.from_cache, 1);
  EXPECT_EQ(second.computed, 0);
  EXPECT_EQ(second.trials_run, 0u);
  EXPECT_EQ(trials_executed(), trials_before);
  EXPECT_EQ(second.rows, first.rows);
  EXPECT_TRUE(second.job_dir.empty());  // no job was ever created
}

TEST(ServiceCache, VerifyCacheRecomputesAndMatches) {
  const std::string cache_dir = mini.fresh_dir("cache_verify");
  ServeOptions options;
  options.cache_dir = cache_dir;
  options.job_dir = mini.fresh_dir("cache_verify_job1");
  const ServeSummary first = serve({&mini.scenario()}, {}, options);
  ASSERT_EQ(first.computed, 1);

  // --verify-cache recomputes the cached scenario live and throws on any
  // row drift; a clean return plus equal rows is the verifiability check.
  options.verify_cache = true;
  options.job_dir = mini.fresh_dir("cache_verify_job2");
  const ServeSummary verified = serve({&mini.scenario()}, {}, options);
  EXPECT_EQ(verified.computed, 1);
  EXPECT_GT(verified.trials_run, 0u);
  EXPECT_EQ(verified.rows, first.rows);
}

TEST(ServiceCache, CachedRowsMatchDirectRunnerRows) {
  const std::string cache_dir = mini.fresh_dir("cache_vs_runner");
  ServeOptions options;
  options.cache_dir = cache_dir;
  options.job_dir = mini.fresh_dir("cache_vs_runner_job");
  serve({&mini.scenario()}, {}, options);

  ResultCache cache(cache_dir);
  const auto hit = cache.lookup(result_cache_key(
      scenario::apply_options(mini.scenario(), {}), {}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, mini.reference_rows());
}

TEST(ServiceCache, KeyIsSensitiveToEveryResultSelectingInput) {
  const ScenarioSpec applied =
      scenario::apply_options(mini.scenario(), {});
  const std::uint64_t base = result_cache_key(applied, {});

  RunOptions word;
  word.rng = RngMode::word;
  EXPECT_NE(result_cache_key(applied, word), base);

  RunOptions fewer;
  fewer.trials_override = 2;
  EXPECT_NE(
      result_cache_key(scenario::apply_options(mini.scenario(), fewer),
                       fewer),
      base);

  ScenarioSpec reseeded = mini.scenario();
  reseeded.base_seed += 1;
  EXPECT_NE(result_cache_key(scenario::apply_options(reseeded, {}), {}),
            base);

  // Inputs that can NOT change results share the key: thread counts and
  // history retention are execution details, not identity.
  RunOptions threaded;
  threaded.sweep_threads = 4;
  threaded.history = HistoryPolicy::full;
  EXPECT_EQ(result_cache_key(applied, threaded), base);
}

TEST(ServiceCache, DefaultOptionKeysMatchOlderReleases) {
  // A job directory and a cache entry written with default options by a
  // release that still had an engine choice ("kernel" or "scalar") must
  // keep their keys: both keys still hash the literal "kernel" first. The
  // values below are what that release computed for this scenario. The
  // cache key also covers the catalog hash (the built-in catalog plus this
  // file's first mini scenario), so a catalog edit changes it, as it
  // changes the golden digests.
  ASSERT_FALSE(scenario::scenarios().contains("svc-test/cache-mini-b"))
      << "the pinned cache key assumes the built-in catalog plus "
         "svc-test/cache-mini only";
  const JobSpec job = mini.job(16, 60);
  EXPECT_EQ(scenario::hash_hex(job.key), "08597cb530fbed26");
  EXPECT_EQ(scenario::hash_hex(result_cache_key(
                scenario::apply_options(mini.scenario(), {}), {})),
            "3ff7696976c19ba1");
}

TEST(ServiceCache, LruEvictionStaysUnderBudgetAndLookupRefreshes) {
  const std::string dir = mini.fresh_dir("cache_lru");
  util::FakeClock clock(100);
  // Each entry is 41 bytes (40 of rows + 1 of sidecar); a 100-byte budget
  // holds two entries but not three.
  const std::vector<std::string> rows{std::string(39, 'x')};
  ResultCache cache(dir, /*max_bytes=*/100, nullptr, &clock);
  cache.store(1, rows, "d");
  clock.advance(10);
  cache.store(2, rows, "d");
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_LE(cache.total_bytes(), 100u);

  // A lookup is a *use*: key 1 becomes the most recent, so the next
  // eviction must take key 2 even though key 1 was stored first.
  clock.advance(10);
  EXPECT_TRUE(cache.lookup(1).has_value());
  clock.advance(10);
  cache.store(3, rows, "d");
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_LE(cache.total_bytes(), 100u);
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());

  // Recency is durable: a reopened cache sees the same two entries.
  ResultCache reopened(dir, 100, nullptr, &clock);
  EXPECT_EQ(reopened.entry_count(), 2u);
  EXPECT_TRUE(reopened.lookup(1).has_value());
  EXPECT_TRUE(reopened.lookup(3).has_value());

  // A budget too small for even one entry still keeps the newest: the
  // just-stored entry (and the last survivor) are never evicted, so a
  // hostile budget degrades to "cache of one", not an empty cache.
  ResultCache tiny(mini.fresh_dir("cache_tiny"), /*max_bytes=*/1, nullptr,
                   &clock);
  tiny.store(7, rows, "d");
  EXPECT_EQ(tiny.entry_count(), 1u);
  tiny.store(8, rows, "d");
  EXPECT_EQ(tiny.entry_count(), 1u);
  EXPECT_FALSE(tiny.lookup(7).has_value());
  EXPECT_TRUE(tiny.lookup(8).has_value());
}

TEST(ServiceCache, OrphanTempFilesAreSweptOnOpen) {
  const std::string dir = mini.fresh_dir("cache_orphans");
  const fs::path orphan_rows =
      fs::path(dir) / "0000000000000001.rows.tmp.999.0";
  const fs::path orphan_index = fs::path(dir) / "index.tmp.999.1";
  std::ofstream(orphan_rows) << "half-written";
  std::ofstream(orphan_index) << "half-written";
  ASSERT_TRUE(fs::exists(orphan_rows));

  ResultCache cache(dir);
  EXPECT_FALSE(fs::exists(orphan_rows));
  EXPECT_FALSE(fs::exists(orphan_index));
  EXPECT_EQ(cache.entry_count(), 0u);  // debris never becomes an entry
}

TEST(ServiceCache, EvictedScenarioRecomputesWhileSurvivorStillHits) {
  // Pin the catalog before any keys are computed: both scenarios must be
  // registered up front, since the key covers the whole catalog hash.
  const ScenarioSpec& a = mini.scenario();
  const ScenarioSpec& b = mini_b.scenario();
  const std::string cache_dir = mini.fresh_dir("cache_evict_e2e");
  ServeOptions options;
  options.cache_dir = cache_dir;
  options.cache_max_bytes = 1;  // room for exactly one surviving entry

  // Serve A, then B: storing B evicts A.
  options.job_dir = mini.fresh_dir("cache_evict_job_a");
  const ServeSummary first_a = serve({&a}, {}, options);
  EXPECT_EQ(first_a.computed, 1);
  options.job_dir = mini.fresh_dir("cache_evict_job_b");
  EXPECT_EQ(serve({&b}, {}, options).computed, 1);

  // The survivor (B) still hits with zero recompute...
  const std::uint64_t trials_before = trials_executed();
  options.job_dir = mini.fresh_dir("cache_evict_job_b2");
  const ServeSummary again_b = serve({&b}, {}, options);
  EXPECT_EQ(again_b.from_cache, 1);
  EXPECT_EQ(trials_executed(), trials_before);

  // ...while the evicted scenario (A) transparently recomputes, and the
  // recompute is byte-identical to what the cache once held.
  options.job_dir = mini.fresh_dir("cache_evict_job_a2");
  const ServeSummary again_a = serve({&a}, {}, options);
  EXPECT_EQ(again_a.from_cache, 0);
  EXPECT_EQ(again_a.computed, 1);
  EXPECT_GT(trials_executed(), trials_before);
  EXPECT_EQ(again_a.rows, first_a.rows);
}

}  // namespace
}  // namespace dualcast::service
