#include "nn/kernels.h"

#include <atomic>
#include <cstring>

namespace zerotune::nn::kernels {

#if ZEROTUNE_SIMD_AVX2
namespace avx2 {
// Implemented in kernels_avx2.cc (the only TU built with -mavx2 -mfma).
void GemmRowMajorF64(const double* a, size_t m, size_t k, const double* b,
                     size_t n, double* out);
void MacF64(double* acc, const double* x, double s, size_t n);
double DotF64(const double* a, const double* b, size_t n);
void AddF64(double* acc, const double* x, size_t n);
void MeanRowsF64(double* dst, const double* const* rows, size_t count,
                 size_t n);
void BiasActRowsF64(double* x, const double* bias, size_t rows, size_t n,
                    FusedAct act);
}  // namespace avx2
#endif  // ZEROTUNE_SIMD_AVX2

namespace {

std::atomic<bool> g_force_scalar{false};

bool DetectSimd() {
#if ZEROTUNE_SIMD_AVX2
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// One relaxed load on the hot path; the cpuid probe runs once.
inline bool UseSimd() {
  static const bool supported = DetectSimd();
  return supported && !g_force_scalar.load(std::memory_order_relaxed);
}

// -------------------------------------------------------------------
// Scalar reference implementations. These replicate the historical
// nn::Matrix arithmetic exactly (same loop structure and summation
// order as Matrix::MatMul and the pre-kernel batch-engine helpers), so
// a ZEROTUNE_DISABLE_SIMD build keeps bit-identical outputs.
// -------------------------------------------------------------------
namespace scalar {

void GemmRowMajorF64(const double* a, size_t m, size_t k, const double* b,
                     size_t n, double* out) {
  std::memset(out, 0, m * n * sizeof(double));
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* orow = out + i * n;
    for (size_t kk = 0; kk < k; ++kk) {
      const double aik = arow[kk];
      if (aik == 0.0) continue;  // feature rows are sparse; 0·x adds ±0
      const double* brow = b + kk * n;
      for (size_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
    }
  }
}

void MacF64(double* acc, const double* x, double s, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += s * x[i];
}

double DotF64(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void AddF64(double* acc, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += x[i];
}

void MeanRowsF64(double* dst, const double* const* rows, size_t count,
                 size_t n) {
  const double inv = 1.0 / static_cast<double>(count);
  for (size_t i = 0; i < n; ++i) {
    double acc = rows[0][i];
    for (size_t r = 1; r < count; ++r) acc += rows[r][i];
    dst[i] = acc * inv;
  }
}

void BiasActRowsF64(double* x, const double* bias, size_t rows, size_t n,
                    FusedAct act) {
  for (size_t r = 0; r < rows; ++r) {
    double* row = x + r * n;
    for (size_t i = 0; i < n; ++i) row[i] += bias[i];
    switch (act) {
      case FusedAct::kNone:
        break;
      case FusedAct::kRelu:
        for (size_t i = 0; i < n; ++i) row[i] = row[i] > 0.0 ? row[i] : 0.0;
        break;
      case FusedAct::kLeakyRelu:
        for (size_t i = 0; i < n; ++i) {
          row[i] = row[i] > 0.0 ? row[i] : 0.01 * row[i];
        }
        break;
    }
  }
}

}  // namespace scalar
}  // namespace

const char* IsaName(Isa isa) {
  return isa == Isa::kAvx2Fma ? "avx2-fma" : "scalar";
}

bool SimdCompiledIn() {
#if ZEROTUNE_SIMD_AVX2
  return true;
#else
  return false;
#endif
}

bool SimdSupported() {
  static const bool supported = DetectSimd();
  return supported;
}

Isa ActiveIsa() { return UseSimd() ? Isa::kAvx2Fma : Isa::kScalar; }

void ForceScalar(bool on) {
  g_force_scalar.store(on, std::memory_order_relaxed);
}

#if ZEROTUNE_SIMD_AVX2
#define ZT_KERNEL_DISPATCH(fn, ...) \
  return UseSimd() ? avx2::fn(__VA_ARGS__) : scalar::fn(__VA_ARGS__)
#else
#define ZT_KERNEL_DISPATCH(fn, ...) return scalar::fn(__VA_ARGS__)
#endif

void GemmRowMajorF64(const double* a, size_t m, size_t k, const double* b,
                     size_t n, double* out) {
  ZT_KERNEL_DISPATCH(GemmRowMajorF64, a, m, k, b, n, out);
}

void MacF64(double* acc, const double* x, double s, size_t n) {
  ZT_KERNEL_DISPATCH(MacF64, acc, x, s, n);
}

double DotF64(const double* a, const double* b, size_t n) {
  ZT_KERNEL_DISPATCH(DotF64, a, b, n);
}

void AddF64(double* acc, const double* x, size_t n) {
  ZT_KERNEL_DISPATCH(AddF64, acc, x, n);
}

void MeanRowsF64(double* dst, const double* const* rows, size_t count,
                 size_t n) {
  ZT_KERNEL_DISPATCH(MeanRowsF64, dst, rows, count, n);
}

void BiasActRowsF64(double* x, const double* bias, size_t rows, size_t n,
                    FusedAct act) {
  ZT_KERNEL_DISPATCH(BiasActRowsF64, x, bias, rows, n, act);
}

#undef ZT_KERNEL_DISPATCH

}  // namespace zerotune::nn::kernels
