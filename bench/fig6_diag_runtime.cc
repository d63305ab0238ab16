// Figure 6: run time on Diag_n, Pattern-Fusion vs a complete maximal
// miner (the paper's LCM_maximal), as the matrix size n grows with
// σ = n/2.
//
// The complete answer on Diag_n is all C(n, n/2) itemsets of size n/2,
// so any complete miner is exponential in n regardless of implementation
// quality. The baseline runs under a fixed work budget and rows that
// exceed it are marked with '>' — the moral equivalent of the paper's
// ">10 hours" entries. Pattern-Fusion's time stays polynomial: its pool
// is n + C(n,2) patterns and it converges in one or two iterations.
//
// Output: one row per n with both times (seconds).

#include <cstdio>
#include <iostream>
#include <string>

#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/colossal_miner.h"
#include "data/generators.h"
#include "mining/maximal_miner.h"

int main() {
  using namespace colossal;

  constexpr int64_t kBaselineNodeBudget = 20'000'000;
  TablePrinter table({"n", "sigma", "lcm_maximal_s", "lcm_patterns",
                      "pattern_fusion_s", "pf_largest"});

  for (int n : {5, 10, 15, 20, 22, 24, 26, 28, 30, 34, 40, 45}) {
    TransactionDatabase db = MakeDiag(n);
    const int64_t min_support = n / 2;

    MinerOptions baseline_options;
    baseline_options.min_support_count = min_support;
    baseline_options.max_nodes = kBaselineNodeBudget;
    Stopwatch baseline_watch;
    StatusOr<MiningResult> baseline = MineMaximal(db, baseline_options);
    const double baseline_seconds = baseline_watch.ElapsedSeconds();
    if (!baseline.ok()) {
      std::fprintf(stderr, "baseline failed: %s\n",
                   baseline.status().ToString().c_str());
      return 1;
    }
    std::string baseline_cell = baseline->stats.budget_exceeded ? ">" : "";
    baseline_cell += TablePrinter::FormatSeconds(baseline_seconds);
    const std::string baseline_count =
        std::to_string(baseline->patterns.size()) +
        (baseline->stats.budget_exceeded ? "+" : "");

    ColossalMinerOptions fusion_options;
    fusion_options.min_support_count = min_support;
    fusion_options.initial_pool_max_size = 2;
    fusion_options.tau = 0.5;
    fusion_options.k = 40;
    fusion_options.seed = 7;
    Stopwatch fusion_watch;
    StatusOr<ColossalMiningResult> fusion = MineColossal(db, fusion_options);
    const double fusion_seconds = fusion_watch.ElapsedSeconds();
    if (!fusion.ok()) {
      std::fprintf(stderr, "pattern fusion failed: %s\n",
                   fusion.status().ToString().c_str());
      return 1;
    }

    table.AddRow({std::to_string(n), std::to_string(min_support),
                  baseline_cell, baseline_count,
                  TablePrinter::FormatSeconds(fusion_seconds),
                  std::to_string(fusion->patterns.empty()
                                     ? 0
                                     : fusion->patterns[0].size())});
  }

  std::printf("Figure 6 — run time on Diag_n (baseline budget %lld nodes; "
              "'>' = budget exceeded)\n\n",
              static_cast<long long>(kBaselineNodeBudget));
  table.Print(std::cout);
  return 0;
}
