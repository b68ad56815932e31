#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "analysis/fit.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace dualcast {
namespace {

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> values{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 2.5);
  EXPECT_THROW(quantile(values, 1.5), ContractViolation);
}

TEST(Fit, RecoversLinearShape) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 64; x <= 4096; x *= 2) {
    xs.push_back(x);
    ys.push_back(3.0 * x);
  }
  const auto ranked = rank_models(xs, ys, standard_models());
  EXPECT_EQ(ranked.front().model, "n");
  EXPECT_NEAR(ranked.front().scale, 3.0, 1e-9);
  EXPECT_NEAR(ranked.front().r2, 1.0, 1e-9);
}

TEST(Fit, RecoversNOverLogN) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 64; x <= 8192; x *= 2) {
    xs.push_back(x);
    ys.push_back(5.0 * x / std::log2(x));
  }
  EXPECT_EQ(best_fit_name(xs, ys), "n/log n");
}

TEST(Fit, RecoversLogSquared) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 64; x <= 8192; x *= 2) {
    xs.push_back(x);
    ys.push_back(7.0 * std::log2(x) * std::log2(x));
  }
  EXPECT_EQ(best_fit_name(xs, ys), "log^2 n");
}

TEST(Fit, RecoversSqrtOverLog) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 256; x <= 65536; x *= 4) {
    xs.push_back(x);
    ys.push_back(2.0 * std::sqrt(x) / std::log2(x));
  }
  EXPECT_EQ(best_fit_name(xs, ys), "sqrt(n)/log n");
}

TEST(Fit, ToleratesNoise) {
  Rng rng(3);
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 64; x <= 16384; x *= 2) {
    xs.push_back(x);
    ys.push_back(4.0 * x * (0.9 + 0.2 * rng.uniform01()));
  }
  EXPECT_EQ(best_fit_name(xs, ys), "n");
}

TEST(Fit, RejectsBadInput) {
  EXPECT_THROW(fit_model({}, {}, standard_models()[0]), ContractViolation);
  EXPECT_THROW(fit_model({1.0}, {0.0}, standard_models()[0]),
               ContractViolation);
}

TEST(Table, AlignedOutput) {
  Table table({"name", "rounds"});
  table.add_row({cell("decay"), cell(123)});
  table.add_row({cell("round-robin"), cell(7)});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("decay"), std::string::npos);
  EXPECT_NE(out.find("round-robin"), std::string::npos);
  EXPECT_NE(out.find("123"), std::string::npos);
  // Header underline present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table table({"a", "b"});
  table.add_row({cell(1), cell(2.5, 1)});
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2.5\n");
}

TEST(Table, RowWidthEnforced) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({cell(1)}), ContractViolation);
}

}  // namespace
}  // namespace dualcast
