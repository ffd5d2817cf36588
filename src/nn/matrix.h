#ifndef ZEROTUNE_NN_MATRIX_H_
#define ZEROTUNE_NN_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace zerotune::nn {

namespace detail {

/// std::allocator whose value-less construct() default-initializes
/// instead of value-initializing. For doubles that means "leave the
/// memory as-is", which lets Matrix::Uninitialized skip the zero-fill
/// that a GEMM/copy destination would immediately overwrite. Explicit
/// construct(p, value) calls are unchanged, so Matrix(r, c, fill) still
/// fills.
template <class T, class A = std::allocator<T>>
class DefaultInitAllocator : public A {
 public:
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<
        U, typename std::allocator_traits<A>::template rebind_alloc<U>>;
  };

  using A::A;

  template <class U>
  void construct(U* ptr) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(ptr)) U;
  }
  template <class U, class... Args>
  void construct(U* ptr, Args&&... args) {
    std::allocator_traits<A>::construct(static_cast<A&>(*this), ptr,
                                        std::forward<Args>(args)...);
  }
};

}  // namespace detail

/// Dense row-major matrix of doubles. This is the only numeric container in
/// the neural-network library; vectors are 1×n or n×1 matrices. Sizes in
/// this project are tiny (feature vectors and hidden states of width ≤ 256),
/// so the implementation favors clarity over blocking/vectorization tricks.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds a 1×n row vector from values.
  static Matrix RowVector(const std::vector<double>& values);
  static Matrix RowVector(const double* values, size_t n);

  /// Allocates rows×cols WITHOUT zero-filling. Only for destinations
  /// whose every element is overwritten before being read (GEMM outputs,
  /// row-pack buffers); reading an element first is UB, and ASan/MSan
  /// runs of the test suite keep callers honest.
  static Matrix Uninitialized(size_t rows, size_t cols) {
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_.resize(rows * cols);  // default-init: no fill (see allocator)
    return m;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// this += other (shapes must match).
  void Add(const Matrix& other);
  /// this += scale * other.
  void AddScaled(const Matrix& other, double scale);
  /// this *= scale.
  void Scale(double scale);
  /// Sets all entries to zero, keeping the shape.
  void SetZero();

  /// Frobenius-norm squared; used for gradient clipping and tests.
  double SquaredNorm() const;

  /// Returns a . b (naive triple loop, i-k-j order for locality).
  static Matrix MatMul(const Matrix& a, const Matrix& b);
  /// Returns aᵀ . b without materializing the transpose.
  static Matrix MatMulTransA(const Matrix& a, const Matrix& b);
  /// Returns a . bᵀ without materializing the transpose.
  static Matrix MatMulTransB(const Matrix& a, const Matrix& b);

  Matrix Transposed() const;

  std::string DebugString(size_t max_entries = 16) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double, detail::DefaultInitAllocator<double>> data_;
};

}  // namespace zerotune::nn

#endif  // ZEROTUNE_NN_MATRIX_H_
