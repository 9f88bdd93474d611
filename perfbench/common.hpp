// Shared pieces of perfbench_inproc: clock, order statistics, the
// in-memory span recorder and the JSON report every subcommand prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);

/// FNV-1a accumulator for the correctness digests.
class Digest {
 public:
  void add(std::uint64_t value);
  void add(double value);  ///< mixes the IEEE-754 bit pattern
  std::uint64_t value() const { return hash_; }
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One traced interval: a call from benchmark code into one layer.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder's origin
  double end = 0.0;
  int parent = -1;             ///< index of the enclosing span, -1 at top level
  std::uint64_t request = 0;   ///< spans of one operation share this id
};

/// In-memory span recorder for one thread.  Disabled recorders cost one
/// branch per scope, so traced and untraced code share one path.
class Tracer {
 public:
  explicit Tracer(bool enabled, Clock::time_point origin = Clock::now())
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  /// Append the spans of another recorder (parents re-indexed).
  void merge(const Tracer& other);

  /// Per span name: every span's self time in seconds (its duration minus
  /// the part of it its child spans cover).
  std::map<std::string, std::vector<double>> self_times() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Metrics plus bookkeeping, printed as one JSON object by emit().
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> info;  ///< raw JSON values
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
  /// Print the report as one line of JSON on stdout.
  void emit() const;
};

/// Self seconds per layer (a span name's first dot-separated component),
/// summed over every span, as a JSON object.
std::string layer_self_json(const Tracer& tracer);

/// Write every span of `tracer` to `path` as JSON lines.
void write_spans(const Tracer& tracer, const std::string& path);

/// Peak resident set of this process in MiB (VmHWM).
double self_peak_rss_mb();

}  // namespace perfbench
