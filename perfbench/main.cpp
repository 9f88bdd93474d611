// perfbench_inproc — the in-process half of the benchmark (perfbench/run.py
// is the other half: it builds, spawns cps_run / cps_serve and assembles
// the result line).  Each subcommand prints one JSON report on stdout.
//
//   perfbench_inproc info
//   perfbench_inproc codesign --seed S --seconds T [--first-fleet K] [--trace 1] [--spans FILE]
//   perfbench_inproc serve --socket PATH --seed S --seconds T [--spans FILE]
//   perfbench_inproc campaign-probe --seed S --jobs J --csv DIR [--trace 0] [--spans FILE]
#include "common.hpp"

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>

#include "linalg/simd_batch.hpp"
#include "subcommands.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const auto above = std::min(below + 1, values.size() - 1);
  const double frac = position - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * frac;
}

void Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffu;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

std::string Digest::hex() const {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << hash_;
  return out.str();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  saved_parent_ = tracer_.open_;
  index_ = static_cast<int>(tracer_.spans_.size());
  Span span;
  span.name = name;
  span.parent = saved_parent_;
  span.request = request;
  span.start = std::chrono::duration<double>(Clock::now() - tracer_.origin_).count();
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end =
      std::chrono::duration<double>(Clock::now() - tracer_.origin_).count();
  tracer_.open_ = saved_parent_;
}

void Tracer::merge(const Tracer& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, std::vector<double>> Tracer::self_times() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const auto& span : spans_)
    if (span.parent >= 0)
      children[static_cast<std::size_t>(span.parent)].push_back({span.start, span.end});
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, reach = spans_[i].start;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, spans_[i].end);
      if (to > from) covered += to - from;
      reach = std::max(reach, end);
    }
    out[spans_[i].name].push_back(spans_[i].end - spans_[i].start - covered);
  }
  return out;
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

}  // namespace

void Report::emit() const {
  std::ostringstream out;
  out << "{\"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics[i].first) << ": {\"value\": "
        << json_number(metrics[i].second.first)
        << ", \"unit\": " << json_string(metrics[i].second.second) << "}";
  }
  out << "}, \"info\": {";
  for (std::size_t i = 0; i < info.size(); ++i)
    out << (i ? ", " : "") << json_string(info[i].first) << ": " << info[i].second;
  out << "}, \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) out << (i ? ", " : "") << json_string(errors[i]);
  out << "]}\n";
  std::fputs(out.str().c_str(), stdout);
  std::fflush(stdout);
}

std::string layer_self_json(const Tracer& tracer) {
  std::map<std::string, double> totals;
  for (const auto& [name, self] : tracer.self_times()) {
    double& total = totals[name.substr(0, name.find('.'))];
    for (const double seconds : self) total += seconds;
  }
  std::string out = "{";
  for (const auto& [layer, seconds] : totals)
    out += (out.size() > 1 ? ", " : "") + json_string(layer) + ": " + json_number(seconds);
  return out + "}";
}

void write_spans(const Tracer& tracer, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  for (const auto& span : tracer.spans())
    out << "{\"name\": " << json_string(span.name) << ", \"start\": " << json_number(span.start)
        << ", \"end\": " << json_number(span.end) << ", \"parent\": " << span.parent
        << ", \"request\": " << span.request << "}\n";
}

double self_peak_rss_mb() {
  // VmHWM belongs to this program's address space; getrusage's ru_maxrss
  // would also count the parent's pages from before exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

const std::string* Args::find(const std::string& key) const {
  const auto it = values.find(key);
  return it == values.end() ? nullptr : &it->second;
}

std::string Args::str(const std::string& key, const std::string& fallback) const {
  const auto* value = find(key);
  return value ? *value : fallback;
}

std::uint64_t Args::u64(const std::string& key, std::uint64_t fallback) const {
  const auto* value = find(key);
  return value ? std::stoull(*value, nullptr, 0) : fallback;
}

double Args::real(const std::string& key, double fallback) const {
  const auto* value = find(key);
  return value ? std::stod(*value) : fallback;
}

}  // namespace perfbench

namespace {

int run_info() {
  perfbench::Report report;
  report.attempted = 1;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  report.info.push_back({"build_type", "\"" PERFBENCH_BUILD_TYPE "\""});
  report.info.push_back({"ndebug", ndebug ? "true" : "false"});
  report.info.push_back({"simd_width", std::to_string(cps::linalg::kSimdWidth)});
  report.info.push_back({"simd_isa", std::string("\"") + cps::linalg::simd_isa_name() + "\""});
#ifdef __clang__
  report.info.push_back({"compiler", "\"clang " __clang_version__ "\""});
#else
  report.info.push_back({"compiler", "\"gcc " __VERSION__ "\""});
#endif
  report.emit();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_inproc info|codesign|serve|campaign-probe [--key value]...\n");
    return 2;
  }
  perfbench::Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "perfbench_inproc: expected --key value, got '%s'\n", argv[i]);
      return 2;
    }
    args.values[argv[i] + 2] = argv[i + 1];
  }
  const std::string command = argv[1];
  try {
    if (command == "info") return run_info();
    if (command == "codesign") return perfbench::run_codesign(args);
    if (command == "serve") return perfbench::run_serve(args);
    if (command == "campaign-probe") return perfbench::run_campaign_probe(args);
    std::fprintf(stderr, "perfbench_inproc: unknown subcommand '%s'\n", command.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_inproc %s: %s\n", command.c_str(), error.what());
    return 1;
  }
}
