#pragma once

// Minimal shared helpers for the few benches that are not plain scenario
// drivers (the hitting game plays an abstract game, not a KernelExecution).
// Everything measurement-shaped lives in src/analysis (run_tasks,
// censor_trials) and src/scenario (run_scenarios); this header only keeps
// the banner.

#include <iostream>
#include <string>

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "util/strfmt.hpp"

namespace dualcast::bench {

/// Standard bench banner.
inline void banner(const std::string& title, const std::string& paper_claim) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "paper claim: " << paper_claim << "\n\n";
}

}  // namespace dualcast::bench
