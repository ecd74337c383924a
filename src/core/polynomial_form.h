#pragma once
/// \file polynomial_form.h
/// \brief General polynomial generator-function templates.
///
/// The paper prescribes "suitable templates, such as Sum-of-Squares
/// polynomials, where the coefficients of the monomial terms are to be
/// determined" and instantiates the case study with a quadratic. This
/// file provides the general monomial machinery: a basis of monomials of
/// bounded total degree (degree ≥ 2 so W(0) = 0), a coefficient vector
/// over it, numeric/symbolic evaluation and gradients. The LP synthesis
/// and `BarrierPipeline<PolynomialForm>` (pipeline.h) operate on any
/// such basis, so quartic or higher templates can certify systems a
/// quadratic cannot.

#include <string>
#include <vector>

#include "src/expr/expr.h"
#include "src/linalg/vector.h"

namespace bcert::core {

/// A fixed set of monomials x^α over `dims` variables with total degree
/// in [min_degree, max_degree], ordered by (degree, lexicographic α).
class MonomialBasis {
 public:
  /// Throws std::invalid_argument for dims = 0, min_degree < 1 or
  /// max_degree < min_degree.
  MonomialBasis(std::size_t dims, int min_degree, int max_degree);

  /// Convenience: the pure quadratic basis {x_i x_j}.
  static MonomialBasis quadratic(std::size_t dims) {
    return MonomialBasis(dims, 2, 2);
  }

  std::size_t dims() const { return dims_; }
  std::size_t size() const { return exponents_.size(); }

  /// Exponent vector α of monomial k (length dims()).
  const std::vector<int>& exponents(std::size_t k) const {
    return exponents_[k];
  }

  /// Total degree of monomial k.
  int degree(std::size_t k) const;

  /// x^α for monomial k.
  double value(std::size_t k, const linalg::Vector& x) const;

  /// ∇(x^α) for monomial k.
  linalg::Vector gradient(std::size_t k, const linalg::Vector& x) const;

  /// Symbolic monomial over pool variables 0..dims-1.
  expr::ExprId to_expr(std::size_t k, expr::ExprPool& pool) const;

  /// Human-readable monomial, e.g. "x0^2*x1".
  std::string to_string(std::size_t k) const;

 private:
  std::size_t dims_;
  std::vector<std::vector<int>> exponents_;
};

/// A polynomial W(x) = Σ_k c_k·m_k(x) over a monomial basis.
class PolynomialForm {
 public:
  /// Zero polynomial over \p basis.
  explicit PolynomialForm(MonomialBasis basis);

  /// Polynomial with explicit coefficients (size must match basis).
  PolynomialForm(MonomialBasis basis, linalg::Vector coeffs);

  const MonomialBasis& basis() const { return basis_; }
  const linalg::Vector& coeffs() const { return coeffs_; }
  std::size_t dims() const { return basis_.dims(); }

  double value(const linalg::Vector& x) const;
  linalg::Vector gradient(const linalg::Vector& x) const;
  expr::ExprId to_expr(expr::ExprPool& pool) const;

  /// Human-readable rendering, e.g. "0.5*x0^2 + 1*x0*x1".
  std::string to_string() const;

 private:
  MonomialBasis basis_;
  linalg::Vector coeffs_;
};

}  // namespace bcert::core
