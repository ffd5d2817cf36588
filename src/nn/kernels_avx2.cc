// AVX2+FMA kernel implementations. This is the ONLY translation unit in
// the project built with -mavx2 -mfma (see src/nn/CMakeLists.txt) and
// the only place raw vendor intrinsics are allowed (ztlint ZT-S007):
// code here runs strictly behind the runtime cpuid dispatch in
// kernels.cc, so the rest of the binary stays runnable on any x86-64.
//
// Numerics: the GEMM uses the broadcast formulation (for each output
// row, broadcast a[i][k] and FMA into column-vector accumulators), so
// every output element still sums its k terms in ascending order — the
// only difference from the scalar path is FMA's fused rounding. The
// reduction kernel (DotF64) splits the sum across vector lanes and
// reduces horizontally at the end, which reassociates; its callers are
// tolerance-checked. Element-wise kernels are bit-identical to scalar.
//
// All loads and stores are unaligned (loadu/storeu/maskload/maskstore):
// nn::Matrix rows carry no alignment guarantee and callers may slice at
// any 8-byte offset.
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "nn/kernels.h"

namespace zerotune::nn::kernels::avx2 {

namespace {

/// Load mask for the final 1–3 doubles of a row (rem in [0, 4)).
inline __m256i TailMask4(size_t rem) {
  alignas(32) static const int64_t kMask[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + (4 - rem)));
}

inline double HorizontalSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swapped));
}

/// One output row of the GEMM over a 4-column tile at `b + j`, k terms
/// in ascending order with FMA.
inline __m256d GemmTile4(const double* arow, size_t k, const double* b,
                         size_t n, size_t j) {
  __m256d acc = _mm256_setzero_pd();
  for (size_t kk = 0; kk < k; ++kk) {
    const double aik = arow[kk];
    if (aik == 0.0) continue;  // one-hot feature rows are mostly zero
    const __m256d av = _mm256_set1_pd(aik);
    acc = _mm256_fmadd_pd(av, _mm256_loadu_pd(b + kk * n + j), acc);
  }
  return acc;
}

}  // namespace

void GemmRowMajorF64(const double* a, size_t m, size_t k, const double* b,
                     size_t n, double* out) {
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* orow = out + i * n;
    size_t j = 0;
    // 32-column tiles: eight accumulators cover a whole hidden row of
    // width ≤ 32 (or most of one) in a single k pass, so the per-k
    // branch + broadcast overhead is paid once instead of per 16-column
    // tile. Register budget: 8 accumulators + 1 broadcast ≤ 16 ymm.
    for (; j + 32 <= n; j += 32) {
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      __m256d acc4 = _mm256_setzero_pd();
      __m256d acc5 = _mm256_setzero_pd();
      __m256d acc6 = _mm256_setzero_pd();
      __m256d acc7 = _mm256_setzero_pd();
      for (size_t kk = 0; kk < k; ++kk) {
        const double aik = arow[kk];
        if (aik == 0.0) continue;
        const __m256d av = _mm256_set1_pd(aik);
        const double* brow = b + kk * n + j;
        acc0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow), acc0);
        acc1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 4), acc1);
        acc2 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 8), acc2);
        acc3 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 12), acc3);
        acc4 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 16), acc4);
        acc5 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 20), acc5);
        acc6 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 24), acc6);
        acc7 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 28), acc7);
      }
      _mm256_storeu_pd(orow + j, acc0);
      _mm256_storeu_pd(orow + j + 4, acc1);
      _mm256_storeu_pd(orow + j + 8, acc2);
      _mm256_storeu_pd(orow + j + 12, acc3);
      _mm256_storeu_pd(orow + j + 16, acc4);
      _mm256_storeu_pd(orow + j + 20, acc5);
      _mm256_storeu_pd(orow + j + 24, acc6);
      _mm256_storeu_pd(orow + j + 28, acc7);
    }
    // 16-column tiles: four accumulators stay in registers across the
    // whole k loop, so each a-element is broadcast once per tile.
    for (; j + 16 <= n; j += 16) {
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      for (size_t kk = 0; kk < k; ++kk) {
        const double aik = arow[kk];
        if (aik == 0.0) continue;
        const __m256d av = _mm256_set1_pd(aik);
        const double* brow = b + kk * n + j;
        acc0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow), acc0);
        acc1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 4), acc1);
        acc2 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 8), acc2);
        acc3 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + 12), acc3);
      }
      _mm256_storeu_pd(orow + j, acc0);
      _mm256_storeu_pd(orow + j + 4, acc1);
      _mm256_storeu_pd(orow + j + 8, acc2);
      _mm256_storeu_pd(orow + j + 12, acc3);
    }
    for (; j + 4 <= n; j += 4) {
      _mm256_storeu_pd(orow + j, GemmTile4(arow, k, b, n, j));
    }
    if (j < n) {
      const size_t rem = n - j;
      const __m256i mask = TailMask4(rem);
      __m256d acc = _mm256_setzero_pd();
      for (size_t kk = 0; kk < k; ++kk) {
        const double aik = arow[kk];
        if (aik == 0.0) continue;
        const __m256d av = _mm256_set1_pd(aik);
        acc = _mm256_fmadd_pd(
            av, _mm256_maskload_pd(b + kk * n + j, mask), acc);
      }
      _mm256_maskstore_pd(orow + j, mask, acc);
    }
  }
}

void MacF64(double* acc, const double* x, double s, size_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r =
        _mm256_fmadd_pd(sv, _mm256_loadu_pd(x + i), _mm256_loadu_pd(acc + i));
    _mm256_storeu_pd(acc + i, r);
  }
  if (i < n) {
    const __m256i mask = TailMask4(n - i);
    const __m256d r = _mm256_fmadd_pd(sv, _mm256_maskload_pd(x + i, mask),
                                      _mm256_maskload_pd(acc + i, mask));
    _mm256_maskstore_pd(acc + i, mask, r);
  }
}

double DotF64(const double* a, const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  }
  double s = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

void AddF64(double* acc, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i),
                               _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void MeanRowsF64(double* dst, const double* const* rows, size_t count,
                 size_t n) {
  const __m256d inv =
      _mm256_set1_pd(1.0 / static_cast<double>(count));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d acc = _mm256_loadu_pd(rows[0] + i);
    for (size_t r = 1; r < count; ++r) {
      acc = _mm256_add_pd(acc, _mm256_loadu_pd(rows[r] + i));
    }
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(acc, inv));
  }
  if (i < n) {
    const double scalar_inv = 1.0 / static_cast<double>(count);
    for (; i < n; ++i) {
      double acc = rows[0][i];
      for (size_t r = 1; r < count; ++r) acc += rows[r][i];
      dst[i] = acc * scalar_inv;
    }
  }
}

void BiasActRowsF64(double* x, const double* bias, size_t rows, size_t n,
                    FusedAct act) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d leak = _mm256_set1_pd(0.01);
  for (size_t r = 0; r < rows; ++r) {
    double* row = x + r * n;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      __m256d v =
          _mm256_add_pd(_mm256_loadu_pd(row + i), _mm256_loadu_pd(bias + i));
      if (act == FusedAct::kRelu) {
        // max(v, +0) returns +0 for v = ±0, matching `v > 0 ? v : 0`.
        v = _mm256_max_pd(v, zero);
      } else if (act == FusedAct::kLeakyRelu) {
        const __m256d gt = _mm256_cmp_pd(v, zero, _CMP_GT_OQ);
        v = _mm256_blendv_pd(_mm256_mul_pd(v, leak), v, gt);
      }
      _mm256_storeu_pd(row + i, v);
    }
    for (; i < n; ++i) {
      double v = row[i] + bias[i];
      if (act == FusedAct::kRelu) {
        v = v > 0.0 ? v : 0.0;
      } else if (act == FusedAct::kLeakyRelu) {
        v = v > 0.0 ? v : 0.01 * v;
      }
      row[i] = v;
    }
  }
}

}  // namespace zerotune::nn::kernels::avx2
