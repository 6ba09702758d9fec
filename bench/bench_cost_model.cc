// Regenerates Table 1 (per-call pricing of remote data services) and the
// §2.2 headline cost arithmetic (daily API fees vs GPU-hour equivalents).
#include <iostream>

#include "net/cost_model.h"
#include "util/flags.h"
#include "util/table.h"

using namespace cortex;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool csv = flags.GetBool("csv", false);

  std::cout << "=== Table 1: cost of commonly used remote data access "
               "services ===\n";
  TextTable table1({"Company", "Operation", "Cost (per 1k reqs.)"});
  for (const auto& p : StandardApiPricing()) {
    // Appended, not "$" + Num(...): gcc 12 -O3 reports a false -Wrestrict
    // inside operator+(const char*, std::string&&).
    std::string cost = "$";
    cost += TextTable::Num(p.dollars_per_1k_calls, 0);
    table1.AddRow({p.provider, p.operation, cost});
  }
  table1.Print(std::cout, csv);

  std::cout << "\n=== §2.2 cost arithmetic ===\n";
  // A Google-AI-mode-scale service: ~30M tool calls/day at $0.005/call.
  const double calls_per_day = flags.GetDouble("calls-per-day", 30e6);
  CostTracker tracker;
  tracker.AddApiCall(GoogleSearchPricing(),
                     static_cast<std::uint64_t>(calls_per_day));
  const double daily_fees = tracker.api_dollars();
  const double gpu_hours_equiv = daily_fees / kGpuDollarsPerHour;

  TextTable table({"quantity", "value"});
  table.AddRow({"tool calls per day", TextTable::Num(calls_per_day, 0)});
  table.AddRow({"per-call fee ($)",
                TextTable::Num(GoogleSearchPricing().PerCall(), 3)});
  table.AddRow({"daily API fees ($)", TextTable::Num(daily_fees, 0)});
  table.AddRow({"H100 rental ($/h)", TextTable::Num(kGpuDollarsPerHour, 2)});
  table.AddRow({"equivalent GPU-hours/day", TextTable::Num(gpu_hours_equiv, 0)});
  table.Print(std::cout, csv);

  std::cout << "\npaper reference: ~$150k daily fees ~= 3300+ GPU-hours "
               "(§2.2); 5-10M daily queries -> $1.5-4.5M monthly (intro).\n";
  return 0;
}
