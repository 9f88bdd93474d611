// Portable W-wide batch of doubles plus SoA storage for lane-interleaved
// vector batches — the value type under the batched settle kernel
// (linalg/batch_kernels.hpp, sim::detail::settle_batch).
//
// A simd_batch<double, W> holds one double per LANE, where a lane is one
// independent problem instance (one dwell/wait point's state).  The
// batched kernels keep every floating-point operation of a lane in
// exactly the scalar kernel's order — SIMD parallelism runs ACROSS lanes,
// never across a lane's own accumulation — which is what makes each lane
// bit-identical to the scalar path (see batch_kernels.hpp for the
// contract).
//
// ISA selection (compile time, reported via kSimdWidth / simd_isa_name):
//   CPS_BATCH_FORCE_SCALAR  -> generic scalar lanes, W = 4 (the CI
//                              reference build, -DCPS_SIMD_ARCH=off)
//   __AVX512F__             -> 512-bit lanes, W = 8
//   __AVX2__                -> 256-bit lanes, W = 4
//   __ARM_NEON (aarch64)    -> 128-bit lanes, W = 2
//   otherwise               -> generic scalar lanes, W = 4
//
// FP-order contract of the operations themselves:
//   * operator+ / operator* are IEEE-754 double add/mul per lane — the
//     same operation the scalar kernels perform.
//   * multiply_add(a, b, acc) is the TWO-rounding sequence acc + (a * b),
//     never an FMA: the repo builds with -ffp-contract=off precisely so
//     optimized kernels stay bit-identical to the reference expressions,
//     and the batch layer honors the same rule by construction (explicit
//     mul + add intrinsics; never *_fmadd_*).
//   * sqrt lowers to the correctly-rounded IEEE sqrt instruction per lane
//     (vsqrtpd / fsqrt), bit-identical to std::sqrt on the same input.
#pragma once

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#if !defined(CPS_BATCH_FORCE_SCALAR)
#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#endif
#endif

namespace cps::linalg {

/// Generic scalar-array batch: one double per lane, plain loops.  Always
/// available at every W (the differential tests instantiate it directly);
/// also the fallback the native-width alias resolves to when no vector ISA
/// is selected.  With the lane count a compile-time constant the
/// element-wise lane loops are trivially unrollable, so even this form is
/// not a scalar cliff — it is merely the portable reference.
template <typename T, std::size_t W>
struct simd_batch {
  static_assert(W >= 1, "simd_batch needs at least one lane");
  T lane[W];

  static simd_batch load(const T* p) {
    simd_batch r;
    for (std::size_t i = 0; i < W; ++i) r.lane[i] = p[i];
    return r;
  }
  void store(T* p) const {
    for (std::size_t i = 0; i < W; ++i) p[i] = lane[i];
  }
  static simd_batch broadcast(T v) {
    simd_batch r;
    for (std::size_t i = 0; i < W; ++i) r.lane[i] = v;
    return r;
  }
  static simd_batch zero() { return broadcast(T(0)); }

  friend simd_batch operator+(const simd_batch& a, const simd_batch& b) {
    simd_batch r;
    for (std::size_t i = 0; i < W; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    return r;
  }
  friend simd_batch operator*(const simd_batch& a, const simd_batch& b) {
    simd_batch r;
    for (std::size_t i = 0; i < W; ++i) r.lane[i] = a.lane[i] * b.lane[i];
    return r;
  }

  /// acc + a * b with two roundings per lane (mul, then add) — never FMA.
  static simd_batch multiply_add(const simd_batch& a, const simd_batch& b,
                                 const simd_batch& acc) {
    return acc + (a * b);
  }

  static simd_batch sqrt(const simd_batch& x) {
    simd_batch r;
    for (std::size_t i = 0; i < W; ++i) r.lane[i] = std::sqrt(x.lane[i]);
    return r;
  }
};

#if !defined(CPS_BATCH_FORCE_SCALAR) && defined(__AVX512F__)

inline constexpr std::size_t kSimdWidth = 8;
inline constexpr const char* kSimdIsaName = "avx512";

template <>
struct simd_batch<double, 8> {
  __m512d v;

  static simd_batch load(const double* p) { return {_mm512_loadu_pd(p)}; }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  static simd_batch broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static simd_batch zero() { return {_mm512_setzero_pd()}; }

  friend simd_batch operator+(const simd_batch& a, const simd_batch& b) {
    return {_mm512_add_pd(a.v, b.v)};
  }
  friend simd_batch operator*(const simd_batch& a, const simd_batch& b) {
    return {_mm512_mul_pd(a.v, b.v)};
  }
  static simd_batch multiply_add(const simd_batch& a, const simd_batch& b,
                                 const simd_batch& acc) {
    // Explicit mul then add: two roundings, matching the scalar kernels
    // under -ffp-contract=off.  NOT _mm512_fmadd_pd.
    return {_mm512_add_pd(acc.v, _mm512_mul_pd(a.v, b.v))};
  }
  // Full-mask maskz form: same correctly-rounded vsqrtpd on every lane,
  // but the merge source is setzero instead of the _mm512_undefined_pd
  // that makes gcc's plain _mm512_sqrt_pd trip -Wmaybe-uninitialized.
  static simd_batch sqrt(const simd_batch& x) {
    return {_mm512_maskz_sqrt_pd(static_cast<__mmask8>(0xff), x.v)};
  }
};

#elif !defined(CPS_BATCH_FORCE_SCALAR) && defined(__AVX2__)

inline constexpr std::size_t kSimdWidth = 4;
inline constexpr const char* kSimdIsaName = "avx2";

template <>
struct simd_batch<double, 4> {
  __m256d v;

  static simd_batch load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  static simd_batch broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static simd_batch zero() { return {_mm256_setzero_pd()}; }

  friend simd_batch operator+(const simd_batch& a, const simd_batch& b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend simd_batch operator*(const simd_batch& a, const simd_batch& b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  static simd_batch multiply_add(const simd_batch& a, const simd_batch& b,
                                 const simd_batch& acc) {
    // Explicit mul then add: two roundings, matching the scalar kernels
    // under -ffp-contract=off.  NOT _mm256_fmadd_pd.
    return {_mm256_add_pd(acc.v, _mm256_mul_pd(a.v, b.v))};
  }
  static simd_batch sqrt(const simd_batch& x) { return {_mm256_sqrt_pd(x.v)}; }

};

#elif !defined(CPS_BATCH_FORCE_SCALAR) && defined(__ARM_NEON)

inline constexpr std::size_t kSimdWidth = 2;
inline constexpr const char* kSimdIsaName = "neon";

template <>
struct simd_batch<double, 2> {
  float64x2_t v;

  static simd_batch load(const double* p) { return {vld1q_f64(p)}; }
  void store(double* p) const { vst1q_f64(p, v); }
  static simd_batch broadcast(double x) { return {vdupq_n_f64(x)}; }
  static simd_batch zero() { return {vdupq_n_f64(0.0)}; }

  friend simd_batch operator+(const simd_batch& a, const simd_batch& b) {
    return {vaddq_f64(a.v, b.v)};
  }
  friend simd_batch operator*(const simd_batch& a, const simd_batch& b) {
    return {vmulq_f64(a.v, b.v)};
  }
  static simd_batch multiply_add(const simd_batch& a, const simd_batch& b,
                                 const simd_batch& acc) {
    // Explicit mul then add (never vfmaq_f64): two roundings, matching the
    // scalar kernels under -ffp-contract=off.
    return {vaddq_f64(acc.v, vmulq_f64(a.v, b.v))};
  }
  static simd_batch sqrt(const simd_batch& x) { return {vsqrtq_f64(x.v)}; }

};

#else

inline constexpr std::size_t kSimdWidth = 4;
inline constexpr const char* kSimdIsaName = "scalar";

#endif

/// Active ISA of this build, for bench contexts and the cps_run banner.
inline const char* simd_isa_name() { return kSimdIsaName; }

/// SoA batch of W equally-sized vectors, element-major and
/// lane-interleaved: component i of lane L lives at data()[i * W + L], so
/// one unaligned W-load at index i touches the same component of every
/// lane at once.  Storage is a std::vector reused across resize() calls,
/// which keeps the batched per-step loops allocation-free once warm.
template <std::size_t W>
class BatchVector {
 public:
  static constexpr std::size_t kWidth = W;

  BatchVector() = default;
  explicit BatchVector(std::size_t size) { resize(size); }

  std::size_t size() const { return size_; }

  void resize(std::size_t size) {
    size_ = size;
    data_.resize(size * W);
  }

  /// Copy `size()` doubles from `src` into lane L.
  void load_lane(std::size_t lane, const double* src) {
    for (std::size_t i = 0; i < size_; ++i) data_[i * W + lane] = src[i];
  }

  /// Copy lane L out into `dst` (must hold size() doubles).
  void store_lane(std::size_t lane, double* dst) const {
    for (std::size_t i = 0; i < size_; ++i) dst[i] = data_[i * W + lane];
  }

  /// Exchange payloads (never allocates) — the double-buffered step idiom.
  void swap(BatchVector& other) noexcept {
    std::swap(size_, other.size_);
    data_.swap(other.data_);
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* at(std::size_t i) { return data_.data() + i * W; }
  const double* at(std::size_t i) const { return data_.data() + i * W; }

 private:
  std::size_t size_ = 0;
  std::vector<double> data_;
};

}  // namespace cps::linalg
