// Allocation-guard tests for the per-step simulation loops, the
// co-simulation step and the exact slot allocator's per-node search.
//
// This binary replaces the global operator new/new[] with counting
// wrappers (malloc-backed, so ASan still tracks every block) and asserts
// the core contract of the PR-3 rework: the settle, trajectory and jitter
// inner loops — and the batched settle (linalg/batch_kernels.hpp) and
// the co-simulation step (core/co_simulation.hpp) — perform ZERO heap
// allocations per step.  The assertion is
// made robust by comparison, not by absolute counts: running the same
// kernel for N and for 4N steps must allocate the identical number of
// blocks (the setup cost), so any per-step allocation fails the test by a
// margin of thousands.  The exact allocator's branch-and-bound gets a
// fixed budget instead: its node count is not a knob, but it runs to
// hundreds of thousands of nodes on the n = 20 proving instance, so one
// allocation per node overshoots the budget by orders of magnitude.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "core/co_simulation.hpp"
#include "experiments/fixtures.hpp"
#include "linalg/batch_kernels.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "plants/servo_motor.hpp"
#include "sim/jitter.hpp"
#include "sim/settling.hpp"
#include "sim/switched_system.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// std::stable_sort's temporary buffer comes from the nothrow forms; they
// must count too, and must come from malloc to match the deletes below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace cps;

/// Allocations performed by `f()`.
template <typename F>
std::size_t allocations_of(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

struct ServoFixture {
  ServoFixture()
      : design(plants::design_servo_loops()),
        sys(design.a_et, design.a_tt, design.state_dim),
        x0(plants::servo_disturbed_state()) {}
  control::HybridLoopDesign design;
  sim::SwitchedLinearSystem sys;
  linalg::Vector x0;
};

TEST(AllocGuard, SettleLoopIsAllocationFreePerStep) {
  const ServoFixture f;
  // The servo ET loop settles slowly; cap the step budget instead and
  // compare equal-work calls of different lengths.  A tiny threshold keeps
  // the loop running to the cap.
  sim::SettlingOptions short_opts;
  short_opts.threshold = 1e-12;
  short_opts.max_steps = 500;
  sim::SettlingOptions long_opts = short_opts;
  long_opts.max_steps = 2000;

  // Warm-up (first call may lazily initialize library internals).
  (void)sim::settling_step(f.design.a_et, f.x0, f.design.state_dim, short_opts);

  const std::size_t short_allocs = allocations_of(
      [&] { (void)sim::settling_step(f.design.a_et, f.x0, f.design.state_dim, short_opts); });
  const std::size_t long_allocs = allocations_of(
      [&] { (void)sim::settling_step(f.design.a_et, f.x0, f.design.state_dim, long_opts); });
  EXPECT_EQ(short_allocs, long_allocs) << "settle loop allocates per step";
}

TEST(AllocGuard, TrajectoryLoopIsAllocationFreePerStep) {
  const ServoFixture f;
  (void)f.sys.simulate(f.x0, 40, 100, 0.02);

  // simulate() reserves the sample storage up front (one allocation whose
  // SIZE depends on the step count) and then must not allocate per step:
  // the allocation COUNT is step-count-independent.
  const std::size_t short_allocs =
      allocations_of([&] { (void)f.sys.simulate(f.x0, 40, 500, 0.02); });
  const std::size_t long_allocs =
      allocations_of([&] { (void)f.sys.simulate(f.x0, 40, 2000, 0.02); });
  EXPECT_EQ(short_allocs, long_allocs) << "trajectory loop allocates per step";
}

TEST(AllocGuard, JitterLoopIsAllocationFreePerStep) {
  const ServoFixture f;
  const sim::JitteryClosedLoop loop(plants::make_servo_motor(), 0.02,
                                    {0.0, 0.005, 0.01, 0.015, 0.02}, f.design.gain_et);
  // An unreachable threshold pins the loop to max_steps, making the two
  // runs differ only in step count.
  Rng rng(0x90A7ULL);
  (void)loop.settle_under_random_delays(f.x0, 1e-15, rng, 100);

  const std::size_t short_allocs = allocations_of(
      [&] { (void)loop.settle_under_random_delays(f.x0, 1e-15, rng, 500); });
  const std::size_t long_allocs = allocations_of(
      [&] { (void)loop.settle_under_random_delays(f.x0, 1e-15, rng, 2000); });
  EXPECT_EQ(short_allocs, long_allocs) << "jitter loop allocates per step";
}

TEST(AllocGuard, BatchedSettleLoopAllocatesNothingOnceBuffersAreWarm) {
  const ServoFixture f;
  constexpr std::size_t W = linalg::kSimdWidth;
  const std::size_t dim = f.design.a_et.rows();
  // Warm workspace: both SoA buffers sized to the state dimension, as the
  // dwell/wait sweep workspace keeps them between curves.
  linalg::BatchVec state(dim), scratch(dim);
  std::vector<double> x0(dim, 1.0);
  sim::SettlingOptions opts;
  opts.threshold = 1e-12;  // unreachable: pins the loop to max_steps
  opts.max_steps = 2000;
  std::optional<std::size_t> results[W];

  for (std::size_t l = 0; l < W; ++l) state.load_lane(l, x0.data());
  sim::detail::settle_batch(f.design.a_et, state, scratch, f.design.state_dim, opts, W,
                            results);

  const std::size_t allocs = allocations_of([&] {
    for (std::size_t l = 0; l < W; ++l) state.load_lane(l, x0.data());
    sim::detail::settle_batch(f.design.a_et, state, scratch, f.design.state_dim, opts, W,
                              results);
  });
  EXPECT_EQ(allocs, 0u) << "batched settle loop allocates with warm buffers";
}

TEST(AllocGuard, BatchedKernelsAllocateNothingOnceShaped) {
  const ServoFixture f;
  constexpr std::size_t W = linalg::kSimdWidth;
  const std::size_t n = f.design.a_et.rows();
  linalg::BatchVec x(n), v_out(n);
  std::vector<double> x0(n, 0.5);
  for (std::size_t l = 0; l < W; ++l) x.load_lane(l, x0.data());

  const std::size_t kernel_allocs = allocations_of([&] {
    for (int i = 0; i < 100; ++i) linalg::batch_apply_shared_into(f.design.a_et, x, v_out);
  });
  EXPECT_EQ(kernel_allocs, 0u);
}

TEST(AllocGuard, InPlaceKernelsAllocateNothingOnceShaped) {
  const ServoFixture f;
  const linalg::Matrix& a = f.design.a_et;
  const linalg::Matrix& b = f.design.a_tt;
  linalg::Matrix m_out;
  linalg::Vector v_out;
  linalg::Matrix acc = a;
  // First calls shape the outputs (inline storage: still no heap for
  // these 3x3 fixtures, but the contract under test is the steady state).
  linalg::multiply_into(a, b, m_out);
  linalg::apply_into(a, f.x0, v_out);

  const std::size_t kernel_allocs = allocations_of([&] {
    for (int i = 0; i < 100; ++i) {
      linalg::multiply_into(a, b, m_out);
      linalg::multiply_transpose_into(a, b, m_out);
      linalg::transpose_multiply_into(a, b, m_out);
      linalg::transpose_into(a, m_out);
      linalg::add_scaled_into(acc, b, 0.5);
      linalg::apply_into(a, f.x0, v_out);
      (void)linalg::max_abs_diff(a, b);
    }
  });
  EXPECT_EQ(kernel_allocs, 0u);
}

TEST(AllocGuard, InlineMatrixArithmeticNeverTouchesTheHeap) {
  // Whole-object arithmetic on inline-sized (<= 8x8) matrices and
  // (<= 8) vectors is allocation-free even through the operator forms.
  const linalg::Matrix a(8, 8, 1.25);
  const linalg::Matrix b(8, 8, -0.5);
  const linalg::Vector v(8, 2.0);
  const std::size_t allocs = allocations_of([&] {
    for (int i = 0; i < 50; ++i) {
      linalg::Matrix c = a * b;
      c += a;
      c *= 0.99;
      linalg::Matrix d = c.transpose();
      c.swap(d);
      linalg::Vector w = c * v;
      (void)w;
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocGuard, CoSimulationStepIsAllocationFree) {
  // The paper fleet on its Fig. 5 slots, every message through the bus:
  // TT slots, ET arbitration and the slot state machine all run per step.
  const auto apps = experiments::build_paper_fleet();
  auto cosim_over = [&](double horizon) {
    core::CoSimulationOptions options;
    options.horizon = horizon;
    core::CoSimulator cosim(options);
    for (const auto& app : apps)
      cosim.add_application(app, experiments::paper_slot_of(app.name()), {0.0});
    return cosim;
  };
  const core::CoSimulator short_run = cosim_over(3.0);
  const core::CoSimulator long_run = cosim_over(12.0);
  (void)short_run.run();

  const std::size_t short_allocs = allocations_of([&] { (void)short_run.run(); });
  const std::size_t long_allocs = allocations_of([&] { (void)long_run.run(); });
  EXPECT_EQ(short_allocs, long_allocs) << "co-simulation step allocates";
}

TEST(AllocGuard, ExactSearchAllocatesAFixedBudgetNotPerNode) {
  const experiments::AllocProvingInstance inst = experiments::alloc_proving_instances().back();
  ASSERT_EQ(inst.n, 20);
  std::vector<analysis::AppSchedParams> apps = experiments::alloc_proving_params(inst);
  // Warm-up (first call may lazily initialize library internals).
  (void)analysis::optimal_allocate(apps);

  // Setup (facts, first-fit seed, suffix tables), memo growth and the
  // finalized Allocation; the search itself must add nothing per node.
  constexpr std::size_t kBudget = 256;
  std::size_t slots = 0;
  const std::size_t allocs = allocations_of(
      [&] { slots = analysis::optimal_allocate(std::move(apps)).slot_count(); });
  // First fit needs 7 slots here, so both the prove and the witness
  // reconstruction run inside the measured call.
  EXPECT_EQ(slots, 6u);
  EXPECT_LE(allocs, kBudget) << "exact search allocates per node";
}

}  // namespace
