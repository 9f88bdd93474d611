// perfbench_inproc's subcommands (one translation unit each) and their shared
// argument map.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// `--key value` pairs after the subcommand name.
struct Args {
  std::map<std::string, std::string> values;

  const std::string* find(const std::string& key) const;
  std::string str(const std::string& key, const std::string& fallback = "") const;
  std::uint64_t u64(const std::string& key, std::uint64_t fallback = 0) const;
  double real(const std::string& key, double fallback = 0.0) const;
};

/// fleet_codesign: the paper's design flow on fresh synthesized fleets.
int run_codesign(const Args& args);
/// The serve layer probe: open-loop query load against a running cps_serve.
int run_serve(const Args& args);
/// The campaign's traced layers: the registry in-process plus the exact
/// search profile of the proving instances.
int run_campaign_probe(const Args& args);

}  // namespace perfbench
