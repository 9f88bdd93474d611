// The serve probe of every traced run: one process drives a running
// `cps_serve --workers 2` on an open-loop schedule over four connections
// and reports the serve layer's per-layer rows.  Requests are due at fixed
// intervals; a request is timed from when it was due, so a stall that
// holds every connection busy charges its wait to the requests behind it.
//
// The query mix reads resident fixtures (curve, design), runs sched and
// ff/bf alloc queries on fleets drawn from a bounded working set (a first
// touch draws the fleet and writes a store entry, repeats hit memory) and
// sends a small share of exact allocations at n = 14..16 whose long
// service time shares the two workers with the cheap queries.  The kind
// weights are a stated assumption, not measured traffic.
//
// Correctness: every reply must be `ok` and byte-identical to
// serve::dispatch run in this process on the same payload.
#include <sys/prctl.h>

#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "runtime/sweep_runner.hpp"
#include "serve/client.hpp"
#include "serve/queries.hpp"
#include "subcommands.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using cps::serve::Opcode;
using cps::serve::Status;

constexpr int kConnections = 4;
/// Offered rates [requests/s]; `heavy` sits below the mix's capacity so
/// latency rises before throughput stops.
constexpr double kLightRate = 400.0;
constexpr double kHeavyRate = 6000.0;
/// The light and heavy rates alternate over this many rounds; each
/// percentile is taken per round and the median over rounds reported, so
/// a host stall moves one round, not the result.
constexpr int kRounds = 10;
/// Server-side budget on exact allocations: generous enough that none
/// expires at the light rate.
constexpr std::uint32_t kExactDeadlineMs = 2000;
constexpr std::size_t kWorkingSetFleets = 32;
constexpr std::size_t kExactFleets = 8;

enum Kind { kCurve, kDesign, kSched, kAllocFf, kAllocBf, kAllocExact, kKinds };
constexpr const char* kKindNames[kKinds] = {"curve",    "design",   "sched",
                                            "alloc_ff", "alloc_bf", "alloc_exact"};
constexpr double kKindWeights[kKinds] = {0.15, 0.15, 0.25, 0.20, 0.20, 0.05};

struct PoolItem {
  Kind kind;
  Opcode opcode;
  std::string payload;
  std::uint32_t deadline_ms = 0;
  std::string expected;  ///< serve::dispatch in this process
  double dispatch_s = 0.0;  ///< warm in-process dispatch time
};

template <typename Request>
std::string encode(const Request& request) {
  cps::util::BinaryWriter out;
  request.encode(out);
  return out.take();
}

/// The bounded set of distinct requests this run's seed draws from.
std::vector<PoolItem> build_pool(std::uint64_t seed) {
  std::vector<PoolItem> pool;
  pool.push_back({kCurve, Opcode::kCurve, "", 0, "", 0.0});
  for (std::uint64_t app = 0; app < 6; ++app)
    pool.push_back({kDesign, Opcode::kLoopDesign, encode(cps::serve::LoopDesignRequest{app}),
                    0, "", 0.0});
  for (std::size_t k = 0; k < kWorkingSetFleets; ++k) {
    cps::serve::FleetQuery fleet;
    fleet.n_apps = 8 + 2 * (k % 3);
    fleet.seed = cps::runtime::task_seed(seed, k);
    cps::serve::SchedCheckRequest sched;
    sched.fleet = fleet;
    pool.push_back({kSched, Opcode::kSchedCheck, encode(sched), 0, "", 0.0});
    for (const auto allocator : {cps::serve::AllocatorKind::kFirstFit,
                                 cps::serve::AllocatorKind::kBestFit}) {
      cps::serve::AllocateRequest alloc;
      alloc.fleet = fleet;
      alloc.allocator = static_cast<std::uint64_t>(allocator);
      pool.push_back({allocator == cps::serve::AllocatorKind::kFirstFit ? kAllocFf : kAllocBf,
                      Opcode::kAllocate, encode(alloc), 0, "", 0.0});
    }
  }
  for (std::size_t k = 0; k < kExactFleets; ++k) {
    cps::serve::AllocateRequest alloc;
    alloc.fleet.n_apps = 14 + k % 3;
    alloc.fleet.seed = cps::runtime::task_seed(seed, 1000 + k);
    alloc.allocator = static_cast<std::uint64_t>(cps::serve::AllocatorKind::kExact);
    pool.push_back({kAllocExact, Opcode::kAllocate, encode(alloc), kExactDeadlineMs, "", 0.0});
  }
  return pool;
}

/// Draw `count` pool indices by the kind weights.
std::vector<std::uint32_t> draw_schedule(const std::vector<PoolItem>& pool, std::uint64_t seed,
                                         std::size_t count) {
  std::vector<std::vector<std::uint32_t>> by_kind(kKinds);
  for (std::uint32_t i = 0; i < pool.size(); ++i) by_kind[pool[i].kind].push_back(i);
  cps::Rng rng(seed);
  std::vector<std::uint32_t> schedule(count);
  for (auto& item : schedule) {
    double pick = rng.uniform(0.0, 1.0);
    int kind = 0;
    while (kind < kKinds - 1 && pick >= kKindWeights[kind]) pick -= kKindWeights[kind++];
    const auto& items = by_kind[kind];
    item = items[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(items.size()) - 1))];
  }
  return schedule;
}

struct Sample {
  double due = 0.0;   ///< seconds since the phase start
  double sent = 0.0;
  double done = 0.0;
  double late = 0.0;  ///< how late the generator sent it (wake-up jitter)
  std::uint32_t item = 0;
  bool ok = false;
};

struct Phase {
  std::vector<Sample> samples;
  std::size_t failed = 0;
  double span_s = 0.0;  ///< first due to last reply
};

/// Connections shared by every phase of a run.
class LoadClients {
 public:
  LoadClients(const std::string& socket_path, int count) {
    cps::serve::ClientOptions options;
    options.socket_path = socket_path;
    for (int i = 0; i < count; ++i)
      clients_.push_back(std::make_unique<cps::serve::QueryClient>(options));
  }

  /// Offer `schedule` at `rate` requests/s; `tracers[c]` records connection
  /// c's RPC spans (request ids start at `first_request`).
  Phase run(const std::vector<PoolItem>& pool, const std::vector<std::uint32_t>& schedule,
            double rate, std::vector<Tracer>& tracers, std::uint64_t first_request,
            Report& report) {
    Phase phase;
    phase.samples.resize(schedule.size());
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> failed{0};
    std::vector<std::string> errors(clients_.size());
    const auto origin = Clock::now() + std::chrono::milliseconds(5);
    auto since = [origin](Clock::time_point t) {
      return std::chrono::duration<double>(t - origin).count();
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        // Wake at the due time, not up to 50 us after it (the default
        // timer slack); sleeping instead of spinning leaves the cores to
        // the server.
        prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
        auto& client = *clients_[c];
        for (std::size_t i = next++; i < schedule.size(); i = next++) {
          Sample& sample = phase.samples[i];
          sample.item = schedule[i];
          sample.due = static_cast<double>(i) / rate;
          const auto due = origin + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(sample.due));
          const double free_at = since(Clock::now());
          std::this_thread::sleep_until(due);
          const PoolItem& item = pool[sample.item];
          sample.sent = since(Clock::now());
          sample.late = sample.sent - std::max(sample.due, free_at);
          try {
            Tracer::Scope span(tracers[c], "serve.rpc", first_request + i);
            const auto reply = client.call(item.opcode, item.payload, item.deadline_ms);
            sample.ok = reply.ok() && reply.payload == item.expected;
            if (!sample.ok && errors[c].empty())
              errors[c] = std::string(kKindNames[item.kind]) + ": status " +
                          cps::serve::status_name(reply.status()) +
                          (reply.ok() ? " with a reply that differs from local dispatch" : "");
          } catch (const std::exception& error) {
            if (errors[c].empty()) errors[c] = std::string("transport: ") + error.what();
          }
          sample.done = since(Clock::now());
          if (!sample.ok) ++failed;
        }
      });
    }
    for (auto& thread : threads) thread.join();
    phase.failed = failed.load();
    for (const auto& error : errors)
      if (!error.empty()) report.errors.push_back(error);
    for (const auto& sample : phase.samples) phase.span_s = std::max(phase.span_s, sample.done);
    report.attempted += schedule.size();
    report.failed += phase.failed;
    return phase;
  }

  cps::serve::QueryClient& first() { return *clients_.front(); }

 private:
  std::vector<std::unique_ptr<cps::serve::QueryClient>> clients_;
};

std::vector<double> latencies_ms(const Phase& phase) {
  std::vector<double> out;
  out.reserve(phase.samples.size());
  for (const auto& sample : phase.samples) out.push_back((sample.done - sample.due) * 1e3);
  return out;
}

/// Warm in-process dispatch time of every pool item (median of `reps`).
void time_dispatch(std::vector<PoolItem>& pool, Tracer& tracer, int reps) {
  for (std::size_t i = 0; i < pool.size(); ++i) {
    auto& item = pool[i];
    std::vector<double> times;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = Clock::now();
      Tracer::Scope span(tracer, "serve.dispatch", i);
      cps::serve::dispatch(item.opcode, item.payload, {});
      times.push_back(seconds_since(start));
    }
    item.dispatch_s = quantile(times, 0.5);
  }
}

std::map<std::string, std::uint64_t> server_counters(cps::serve::QueryClient& client) {
  const auto reply = client.call(Opcode::kStats, "");
  CPS_ENSURE(reply.ok(), "kStats was refused");
  cps::util::BinaryReader in(reply.payload);
  std::map<std::string, std::uint64_t> counters;
  for (const auto& [name, value] : cps::serve::StatsResponse::decode(in).counters)
    counters[name] = value;
  return counters;
}

}  // namespace

int run_serve(const Args& args) {
  const std::string socket_path = args.str("socket");
  CPS_ENSURE(!socket_path.empty(), "serve needs --socket PATH");
  const std::uint64_t seed = args.u64("seed", 0x5EED5EEDULL);
  const double seconds = args.real("seconds", 10.0);

  Report report;
  auto pool = build_pool(seed);
  for (auto& item : pool) {
    const auto local = cps::serve::dispatch(item.opcode, item.payload, {});
    CPS_ENSURE(local.status == Status::kOk,
               std::string("local dispatch refused a ") + kKindNames[item.kind] + " query");
    item.expected = local.payload;
  }

  LoadClients clients(socket_path, kConnections);
  std::vector<Tracer> idle(kConnections, Tracer(false));
  std::uint64_t phase_seed = 0;
  auto offer = [&](double rate, double duration, std::vector<Tracer>& tracers) {
    const auto count = static_cast<std::size_t>(rate * duration);
    const auto schedule = draw_schedule(pool, cps::runtime::task_seed(seed, 2000 + phase_seed++),
                                        count);
    return clients.run(pool, schedule, rate, tracers, phase_seed << 32, report);
  };

  const auto origin = Clock::now();
  Tracer tracer(true, origin);
  time_dispatch(pool, tracer, 9);
  std::vector<std::vector<double>> dispatch_us(kKinds);
  for (const auto& item : pool) dispatch_us[item.kind].push_back(item.dispatch_s * 1e6);
  for (int kind = 0; kind < kKinds; ++kind)
    report.metric(std::string("serve.dispatch_us.") + kKindNames[kind],
                  quantile(dispatch_us[kind], 0.5), "us");

  // Unloaded round trips: one connection, one request at a time, after a
  // pass that makes every fleet resident in the server.
  std::vector<double> overhead_us;
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      ++report.attempted;
      const auto start = Clock::now();
      const auto reply = clients.first().call(pool[i].opcode, pool[i].payload,
                                              pool[i].deadline_ms);
      const double rtt = seconds_since(start);
      if (!reply.ok() || reply.payload != pool[i].expected) report.fail("unloaded reply");
      if (pass > 0) overhead_us.push_back((rtt - pool[i].dispatch_s) * 1e6);
    }
  }
  report.metric("serve.overhead_us", quantile(overhead_us, 0.5), "us");

  // Per round: the light rate untraced, then the heavy rate traced, where
  // a request's round trip minus its own dispatch time is its wait inside
  // the server.  The p99 latencies are rows without a bound: on a shared
  // host they are set by scheduling stalls and vary several-fold from run
  // to run.
  std::vector<Tracer> tracers;
  for (int c = 0; c < kConnections; ++c) tracers.emplace_back(true, origin);
  std::vector<double> light_p99, heavy_p99, wait_ms, late_ms;
  for (int round = 0; round < kRounds; ++round) {
    const double slot = seconds / kRounds;
    light_p99.push_back(quantile(latencies_ms(offer(kLightRate, 0.5 * slot, idle)), 0.99));
    const Phase heavy = offer(kHeavyRate, 0.3 * slot, tracers);
    heavy_p99.push_back(quantile(latencies_ms(heavy), 0.99));
    for (const auto& sample : heavy.samples) {
      wait_ms.push_back((sample.done - sample.sent - pool[sample.item].dispatch_s) * 1e3);
      late_ms.push_back(sample.late * 1e3);
    }
  }
  report.metric("serve.p99_ms_light", quantile(light_p99, 0.5), "ms");
  report.metric("serve.p99_ms_heavy", quantile(heavy_p99, 0.5), "ms");
  report.metric("serve.server_wait_ms_p50", quantile(wait_ms, 0.5), "ms");
  report.metric("serve.server_wait_ms_p99", quantile(wait_ms, 0.99), "ms");
  report.metric("serve.generator_late_ms", quantile(late_ms, 0.99), "ms");

  auto counters = server_counters(clients.first());
  report.metric("serve.requests_shed", static_cast<double>(counters["requests_shed"]), "count");
  report.metric("serve.deadline_expired", static_cast<double>(counters["deadline_expired"]),
                "count");
  report.metric("serve.requests_completed",
                static_cast<double>(counters["requests_completed"]), "count");
  const double lookups =
      static_cast<double>(counters["fixture_cache_hits"] + counters["fixture_cache_misses"]);
  report.metric("runtime.fixture_hit_ratio",
                lookups > 0 ? static_cast<double>(counters["fixture_cache_hits"]) / lookups : 0.0,
                "ratio");
  report.metric("runtime.store_writes", static_cast<double>(counters["fixture_store_writes"]),
                "count");
  for (const auto& connection : tracers) tracer.merge(connection);
  report.info.push_back({"layer_self_s", layer_self_json(tracer)});
  write_spans(tracer, args.str("spans"));
  report.emit();
  return 0;
}

}  // namespace perfbench
