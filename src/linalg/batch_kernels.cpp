#include "linalg/batch_kernels.hpp"

#include <string>

#include "util/error.hpp"

namespace cps::linalg {

void batch_apply_shared_into(const Matrix& a, const BatchVec& x, BatchVec& out) {
  if (&out == &x)
    throw InvalidArgument("batch_apply_shared_into: out must not alias an input");
  if (a.cols() != x.size())
    throw DimensionMismatch("batch_apply_shared_into: " + std::to_string(a.rows()) + "x" +
                            std::to_string(a.cols()) + " times vector of size " +
                            std::to_string(x.size()));
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  out.resize(rows);
  const double* ad = a.data();
  for (std::size_t i = 0; i < rows; ++i) {
    DoubleBatch acc = DoubleBatch::zero();
    const double* arow = ad + i * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      const DoubleBatch aij = DoubleBatch::broadcast(arow[j]);
      const DoubleBatch xj = DoubleBatch::load(x.at(j));
      acc = DoubleBatch::multiply_add(aij, xj, acc);
    }
    acc.store(out.at(i));
  }
}

}  // namespace cps::linalg
