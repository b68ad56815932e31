// Golden sample paths: every catalog scenario's smoke rows (run_scenario
// at default options, smoke on) are pinned by an FNV-1a digest checked in
// at tests/golden/catalog_smoke.txt. Any change to a sample path — an
// engine, kernel, adversary or RNG change — fails here and prints the
// replacement line, so it lands as a reviewed diff of that file.
//
// The simulator's only floating-point calls are sqrt/floor/ceil, so the
// digests hold on any x86-64 build without -march=native.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"

namespace dualcast::scenario {
namespace {

const char* const kGoldenPath = DUALCAST_TEST_DATA_DIR "/golden/catalog_smoke.txt";

/// name -> digest, from "<name> <hash_hex>" lines ('#' starts a comment).
std::map<std::string, std::string> read_golden() {
  std::ifstream in(kGoldenPath);
  EXPECT_TRUE(in) << "cannot read " << kGoldenPath;
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

std::string smoke_digest(const ScenarioSpec& spec) {
  RunOptions options;
  options.smoke = true;
  std::vector<std::string> rows;
  append_json_rows(run_scenario(spec, options), rows);
  std::uint64_t hash = kFnvOffsetBasis;
  for (const std::string& row : rows) hash = fnv1a64(row + "\n", hash);
  return hash_hex(hash);
}

TEST(GoldenCatalog, SmokeRowsMatchCheckedInDigests) {
  std::map<std::string, std::string> golden = read_golden();
  for (const ScenarioSpec* spec : scenarios().all()) {
    const std::string line = spec->name + " " + smoke_digest(*spec);
    const auto it = golden.find(spec->name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden digest; add to " << kGoldenPath << ":\n"
                    << line;
      continue;
    }
    EXPECT_EQ(spec->name + " " + it->second, line)
        << "sample path changed; if intended, replace the line in "
        << kGoldenPath << " with:\n"
        << line;
    golden.erase(it);
  }
  for (const auto& [name, digest] : golden) {
    ADD_FAILURE() << "stale golden digest for unknown scenario; remove:\n"
                  << name << " " << digest;
  }
}

}  // namespace
}  // namespace dualcast::scenario
