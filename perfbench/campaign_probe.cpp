// The campaign's traced layers, on the full `cps_run all` catalog (the
// campaign_core workload runs all of it but sweep_alloc_scaling).  A
// campaign's time goes to the exact branch-and-bound and the runtime fan-out,
// so the probe times each registered experiment through
// runtime::ExperimentRegistry in-process (same seed and jobs as
// `cps_run all --seed`), reads the fixture cache counters, takes the
// n = 20 exact-search tail from the campaign's own times sidecar and
// profiles the exact search on every experiments::alloc_proving_instances()
// instance.  With `--trace 0` the same campaign runs with the recorder
// disabled and only its wall clock is reported, so two processes, one per
// setting, give the tracing overhead.
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/slot_allocation.hpp"
#include "common.hpp"
#include "experiments/fixtures.hpp"
#include "runtime/experiment.hpp"
#include "runtime/fixture_cache.hpp"
#include "subcommands.hpp"
#include "util/error.hpp"

namespace perfbench {
namespace {

/// max_exact_ms of the n_apps = 20 row of sweep_alloc_scaling_times.csv.
double exact_tail_ms(const std::string& csv_dir) {
  std::ifstream in(csv_dir + "/sweep_alloc_scaling_times.csv");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("20,", 0) != 0) continue;
    const auto comma = line.rfind(',');
    return std::stod(line.substr(comma + 1));
  }
  throw cps::Error("sweep_alloc_scaling_times.csv has no n_apps = 20 row");
}

}  // namespace

int run_campaign_probe(const Args& args) {
  const std::string csv_dir = args.str("csv");
  CPS_ENSURE(!csv_dir.empty(), "campaign-probe needs --csv DIR");
  Report report;
  Tracer tracer(args.u64("trace", 1) != 0);

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> narrative(
      std::fopen((csv_dir + "/narrative.txt").c_str(), "w"), &std::fclose);
  CPS_ENSURE(narrative != nullptr, "cannot open the narrative log in --csv DIR");
  cps::runtime::ExperimentContext context;
  context.jobs = static_cast<int>(args.u64("jobs", 4));
  context.seed = args.u64("seed", 0x5EED5EEDULL);
  context.seed_explicit = true;  // as cps_run's --seed: it beats a scenario's own seed
  context.csv_dir = csv_dir;
  context.out = narrative.get();

  const auto start = Clock::now();
  std::uint64_t request = 0;
  for (const auto* experiment : cps::runtime::ExperimentRegistry::instance().list()) {
    ++report.attempted;
    const std::string span_name = "experiments." + experiment->name();
    try {
      Tracer::Scope span(tracer, span_name.c_str(), request++);
      experiment->run(context);
    } catch (const std::exception& error) {
      report.fail(experiment->name() + ": " + error.what());
    }
  }
  const double campaign_s = seconds_since(start);
  std::ostringstream campaign;
  campaign.precision(17);
  campaign << campaign_s;
  report.info.push_back({"campaign_s", campaign.str()});
  if (!tracer.enabled()) {
    report.emit();
    return 0;
  }
  for (const auto& [name, self] : tracer.self_times())
    report.metric(name + "_s", self.front(), "s");

  const auto cache = cps::runtime::FixtureCache::instance().stats();
  report.metric("runtime.fixture_hits", static_cast<double>(cache.hits), "count");
  report.metric("runtime.fixture_misses", static_cast<double>(cache.misses), "count");
  report.metric("analysis.exact_tail_ms", exact_tail_ms(csv_dir), "ms");

  for (const auto& instance : cps::experiments::alloc_proving_instances()) {
    ++report.attempted;
    const std::string n = ".n" + std::to_string(instance.n);
    cps::analysis::ExactSearchProfile profile;
    {
      Tracer::Scope span(tracer, "analysis.profile_exact", request++);
      profile = cps::analysis::profile_exact_search(
          cps::experiments::alloc_proving_params(instance));
    }
    report.metric("analysis.exact_seq_ms" + n, profile.sequential_seconds * 1e3, "ms");
    report.metric("analysis.exact_cp_j4_ms" + n, profile.critical_path_seconds(4) * 1e3, "ms");
    report.metric("analysis.exact_tasks" + n, static_cast<double>(profile.task_seconds.size()),
                  "count");
  }

  report.info.push_back({"layer_self_s", layer_self_json(tracer)});
  write_spans(tracer, args.str("spans"));
  report.emit();
  return 0;
}

}  // namespace perfbench
