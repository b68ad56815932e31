// Golden sample paths: every catalog scenario's smoke rows (run_scenario
// at default options, smoke on) are pinned by an FNV-1a digest checked in
// at tests/golden/catalog_smoke.txt, and every Figure-1 scenario's
// full-size rows by tests/golden/fig1_full.txt. Any change to a sample
// path — an engine, kernel, adversary, resolver or RNG change — fails here
// and prints the replacement line, so it lands as a reviewed diff of that
// file.
//
// Smoke sizes fit a whole edge mask in a word or two; the full-size rows
// cover masks that span many words on every sweep point of fig1/.
//
// The simulator's only floating-point calls are sqrt/floor/ceil, so the
// digests hold on any x86-64 build without -march=native.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"

namespace dualcast::scenario {
namespace {

const char* const kSmokePath = DUALCAST_TEST_DATA_DIR "/golden/catalog_smoke.txt";
const char* const kFig1FullPath = DUALCAST_TEST_DATA_DIR "/golden/fig1_full.txt";

/// name -> digest, from "<name> <hash_hex>" lines ('#' starts a comment).
std::map<std::string, std::string> read_golden(const char* path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string digest;
    fields >> name >> digest;
    golden[name] = digest;
  }
  return golden;
}

/// FNV-1a 64 chained over the result's JSON rows, each followed by "\n".
std::string rows_digest(const ScenarioResult& result) {
  std::vector<std::string> rows;
  append_json_rows(result, rows);
  std::uint64_t hash = kFnvOffsetBasis;
  for (const std::string& row : rows) hash = fnv1a64(row + "\n", hash);
  return hash_hex(hash);
}

/// Checks one "<name> <digest>" line per scenario against the golden file
/// at `path`: prints the replacement line for a changed or missing digest,
/// and flags golden lines no scenario produced.
void expect_golden(const char* path,
                   const std::vector<const ScenarioSpec*>& specs,
                   const std::vector<std::string>& digests) {
  std::map<std::string, std::string> golden = read_golden(path);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string line = specs[i]->name + " " + digests[i];
    const auto it = golden.find(specs[i]->name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden digest; add to " << path << ":\n" << line;
      continue;
    }
    EXPECT_EQ(specs[i]->name + " " + it->second, line)
        << "sample path changed; if intended, replace the line in " << path
        << " with:\n"
        << line;
    golden.erase(it);
  }
  for (const auto& [name, digest] : golden) {
    ADD_FAILURE() << "stale golden digest for unknown scenario; remove:\n"
                  << name << " " << digest;
  }
}

TEST(GoldenCatalog, SmokeRowsMatchCheckedInDigests) {
  RunOptions options;
  options.smoke = true;
  const std::vector<const ScenarioSpec*> specs = scenarios().all();
  std::vector<std::string> digests;
  for (const ScenarioSpec* spec : specs) {
    digests.push_back(rows_digest(run_scenario(*spec, options)));
  }
  expect_golden(kSmokePath, specs, digests);
}

TEST(GoldenCatalog, Fig1FullRowsMatchCheckedInDigests) {
  RunOptions options;
  options.sweep_threads = 4;
  const std::vector<const ScenarioSpec*> specs = scenarios().match("fig1/");
  ASSERT_FALSE(specs.empty());
  std::vector<std::string> digests;
  for (const ScenarioResult& result : run_scenarios(specs, options)) {
    digests.push_back(rows_digest(result));
  }
  ASSERT_EQ(digests.size(), specs.size());
  expect_golden(kFig1FullPath, specs, digests);
}

}  // namespace
}  // namespace dualcast::scenario
