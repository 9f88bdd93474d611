// Batched counterpart of the in-place matvec kernel (linalg/kernels.hpp),
// evaluating kSimdWidth independent problem instances per instruction
// stream on SoA storage (linalg/simd_batch.hpp).
//
// FP-order contract: the kernel performs, PER LANE, exactly the
// floating-point operations of the scalar kernel named in its comment, in
// the same order — SIMD runs across lanes only, never across a lane's own
// accumulation — so lane L of the output is bit-identical to running the
// scalar kernel on lane L's operands.  No commutative-reduction
// reordering; the exactness table in ARCHITECTURE.md lists the status.
//
// Aliasing: `out` must not alias the input vector (checked).
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/simd_batch.hpp"

namespace cps::linalg {

/// The native-width aliases every batched call site uses.
using DoubleBatch = simd_batch<double, kSimdWidth>;
using BatchVec = BatchVector<kSimdWidth>;

/// out = a * x per lane with ONE shared scalar matrix broadcast across all
/// lanes — the switched-system per-step update, where every lane evolves
/// under the same closed-loop matrix.  Bit-identical per lane to
/// apply_into(a, x_lane, out_lane): plain multiply-accumulate in ascending
/// column order, no sparsity skip.
void batch_apply_shared_into(const Matrix& a, const BatchVec& x, BatchVec& out);

}  // namespace cps::linalg
