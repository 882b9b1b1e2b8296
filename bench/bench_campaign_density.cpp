// MSE vs node density on random deployments (the random-network regime
// of the Sec. 5 analyses), driven by the trial-parallel campaign engine:
// every trial draws its own uniform deployment over a square field of
// area N / rho, so the sweep exercises run_campaign's unique-deployment
// steady state end to end. Prints RMS error per (density, method) with
// the Eq. 10 worst-case bound overlaid per density (xi = 1; the bound's
// constant is arbitrary, its rho-scaling is the claim: with n = pi R^2 rho
// the bound falls like 1/rho, so only the shape across rows is compared).
#include <array>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/theory.hpp"
#include "sim/campaign.hpp"

int main(int argc, char** argv) {
  using namespace fttt;
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::BenchPool pool(opt.threads);

  print_banner(std::cout, "MSE vs density (campaign engine, random deployments)");

  CampaignConfig cfg;
  cfg.base = bench::default_scenario(opt);
  cfg.base.deployment = DeploymentKind::kRandom;
  cfg.densities = {0.0005, 0.001, 0.002, 0.004};
  cfg.sensor_counts = {10};
  cfg.trials_per_cell = opt.trials;
  cfg.methods = {Method::kFttt, Method::kFtttExtended, Method::kPathMatching,
                 Method::kDirectMle};

  std::cout << "n = " << cfg.sensor_counts[0] << " per trial, field area n/rho, "
            << cfg.trials_per_cell << " unique deployments per density, duration "
            << cfg.base.duration << " s, k = " << cfg.base.samples_per_group
            << ", bounded channel semantics per EXPERIMENTS.md defaults.\n"
            << "Eq. 10 bound uses xi = 1: compare the shape across rho, not the\n"
            << "absolute level.\n\n";

  const CampaignResult result = run_campaign(cfg, pool.pool());

  TextTable t({"rho (nodes/m^2)", "field (m)", "FTTT rms", "FTTT-ext rms", "PM rms",
               "MLE rms", "Eq.10 bound"});
  bench::CsvSink csv(opt);
  csv.row(std::vector<std::string>{"density", "field_side", "fttt_rms", "ftttx_rms",
                                   "pm_rms", "mle_rms", "eq10_bound"});
  for (std::size_t di = 0; di < cfg.densities.size(); ++di) {
    const CampaignCell& cell = result.at(di, 0);
    const auto rms = [&](std::size_t m) {
      const RunningStats& s = cell.summaries[m].pooled;
      return std::sqrt(s.mean() * s.mean() + s.variance());
    };
    const double bound = theory::worst_case_error_bound(
        cfg.base.samples_per_group, cell.density, cell.scenario.sensing_range);
    t.add_row({TextTable::num(cell.density, 4),
               TextTable::num(cell.scenario.field.width(), 1), TextTable::num(rms(0), 2),
               TextTable::num(rms(1), 2), TextTable::num(rms(2), 2),
               TextTable::num(rms(3), 2), TextTable::num(bound, 3)});
    csv.row({cell.density, cell.scenario.field.width(), rms(0), rms(1), rms(2), rms(3),
             bound});
  }
  std::cout << t;
  return 0;
}
