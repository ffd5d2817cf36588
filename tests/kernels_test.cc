// nn::kernels contract tests: SIMD-vs-scalar parity at awkward shapes
// (odd tails, 1-row/1-col, empty), the bit-identity guarantees of the
// element-wise kernels, and tolerance of deliberately misaligned rows.
// Every SIMD comparison is skipped automatically on hardware without
// AVX2+FMA and in ZEROTUNE_DISABLE_SIMD builds, where ActiveIsa() is
// already kScalar and there is nothing to compare.
#include "nn/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace zerotune::nn::kernels {
namespace {

// Restores the dispatch override even when an assertion fails mid-test.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on) { ForceScalar(on); }
  ~ScopedForceScalar() { ForceScalar(false); }
};

bool SimdActiveByDefault() { return ActiveIsa() == Isa::kAvx2Fma; }

// Bitwise equality of two buffers. An empty vector's data() may be null,
// and memcmp must not receive null even for zero bytes (UBSan reports it).
bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> RandomVec(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Gaussian(0.0, 1.0);
  return v;
}

// Shapes chosen to hit every vector-width boundary of the 4-lane fp64
// path and its wider GEMM tiles: empty, single element, sub-vector
// tails, exact multiples, and a multiple-plus-odd-tail.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 48, 49};

TEST(KernelsDispatchTest, IsaNamesAreStable) {
  EXPECT_STREQ(IsaName(Isa::kScalar), "scalar");
  EXPECT_STREQ(IsaName(Isa::kAvx2Fma), "avx2-fma");
}

TEST(KernelsDispatchTest, ForceScalarOverridesActiveIsa) {
  {
    ScopedForceScalar guard(true);
    EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  }
  // After the guard, the ISA reflects hardware + build flags again.
  EXPECT_EQ(ActiveIsa() == Isa::kAvx2Fma, SimdCompiledIn() && SimdSupported());
}

TEST(KernelsDispatchTest, SimdSupportImpliesCompiledIn) {
  if (SimdSupported()) EXPECT_TRUE(SimdCompiledIn());
}

// --- GEMM ------------------------------------------------------------

void ReferenceGemm(const std::vector<double>& a, size_t m, size_t k,
                   const std::vector<double>& b, size_t n,
                   std::vector<double>* out) {
  out->assign(m * n, 0.0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t kk = 0; kk < k; ++kk) {
      for (size_t j = 0; j < n; ++j) {
        (*out)[i * n + j] += a[i * k + kk] * b[kk * n + j];
      }
    }
  }
}

void CheckGemmShape(size_t m, size_t k, size_t n, Rng* rng) {
  SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
               " n=" + std::to_string(n));
  const std::vector<double> a = RandomVec(m * k, rng);
  const std::vector<double> b = RandomVec(k * n, rng);
  // Poison the outputs: the kernel must overwrite, not accumulate.
  std::vector<double> scalar_out(m * n, 1e300);
  std::vector<double> simd_out(m * n, -1e300);
  {
    ScopedForceScalar guard(true);
    GemmRowMajorF64(a.data(), m, k, b.data(), n, scalar_out.data());
  }
  std::vector<double> ref;
  ReferenceGemm(a, m, k, b, n, &ref);
  for (size_t i = 0; i < m * n; ++i) {
    // The scalar kernel replicates the historical i-k-j arithmetic: same
    // ascending-k summation as the reference, so exactly equal.
    EXPECT_EQ(scalar_out[i], ref[i]) << "scalar kernel diverged at " << i;
  }
  if (!SimdActiveByDefault()) return;
  GemmRowMajorF64(a.data(), m, k, b.data(), n, simd_out.data());
  for (size_t i = 0; i < m * n; ++i) {
    const double scale =
        std::max({std::abs(scalar_out[i]), std::abs(simd_out[i]), 1.0});
    // Same summation order, FMA rounding only: a handful of ulps per the
    // contract in nn/kernels.h.
    EXPECT_LE(std::abs(scalar_out[i] - simd_out[i]), 1e-12 * scale)
        << "simd kernel diverged at " << i;
  }
}

TEST(GemmKernelTest, ParityAcrossShapes) {
  Rng rng(7);
  for (size_t m : {1, 2, 5}) {
    for (size_t k : {1, 3, 48, 96}) {
      for (size_t n : kLengths) {
        if (n == 0) continue;  // covered by EmptyShapesAreNoOps
        CheckGemmShape(m, k, n, &rng);
      }
    }
  }
}

TEST(GemmKernelTest, EmptyShapesAreNoOps) {
  // m = 0 and n = 0 produce no output; k = 0 yields all-zero output.
  const double a[1] = {2.0};
  const double b[1] = {3.0};
  double out[1] = {42.0};
  GemmRowMajorF64(a, 0, 1, b, 1, out);
  EXPECT_EQ(out[0], 42.0);
  GemmRowMajorF64(a, 1, 0, b, 1, out);
  EXPECT_EQ(out[0], 0.0);
}

TEST(GemmKernelTest, SparseRowsSkipZeroContributions) {
  // One-hot a-rows (the encoder's input shape) must hit the zero-skip
  // branch and still produce the exact selected b-row plus nothing.
  Rng rng(11);
  const size_t k = 49, n = 48;
  std::vector<double> a(k, 0.0);
  a[17] = 1.0;
  const std::vector<double> b = RandomVec(k * n, &rng);
  std::vector<double> out(n);
  for (bool force : {true, false}) {
    if (!force && !SimdActiveByDefault()) continue;
    ScopedForceScalar guard(force);
    GemmRowMajorF64(a.data(), 1, k, b.data(), n, out.data());
    for (size_t j = 0; j < n; ++j) EXPECT_EQ(out[j], b[17 * n + j]);
  }
}

// --- element-wise kernels: bit-identical across implementations ------

TEST(ElementwiseKernelTest, AddIsBitIdenticalAcrossIsas) {
  Rng rng(13);
  for (size_t n : kLengths) {
    const std::vector<double> x = RandomVec(n, &rng);
    std::vector<double> acc_scalar = RandomVec(n, &rng);
    std::vector<double> acc_simd = acc_scalar;
    {
      ScopedForceScalar guard(true);
      AddF64(acc_scalar.data(), x.data(), n);
    }
    if (!SimdActiveByDefault()) continue;
    AddF64(acc_simd.data(), x.data(), n);
    EXPECT_TRUE(BitIdentical(acc_scalar, acc_simd)) << "n=" << n;
  }
}

TEST(ElementwiseKernelTest, MeanRowsIsBitIdenticalAcrossIsas) {
  Rng rng(17);
  for (size_t n : kLengths) {
    if (n == 0) continue;
    for (size_t count : {1, 2, 3, 7}) {
      std::vector<std::vector<double>> storage;
      std::vector<const double*> rows;
      for (size_t r = 0; r < count; ++r) {
        storage.push_back(RandomVec(n, &rng));
        rows.push_back(storage.back().data());
      }
      std::vector<double> dst_scalar(n), dst_simd(n);
      {
        ScopedForceScalar guard(true);
        MeanRowsF64(dst_scalar.data(), rows.data(), count, n);
      }
      if (!SimdActiveByDefault()) continue;
      MeanRowsF64(dst_simd.data(), rows.data(), count, n);
      EXPECT_EQ(std::memcmp(dst_scalar.data(), dst_simd.data(),
                            n * sizeof(double)),
                0)
          << "n=" << n << " count=" << count;
    }
  }
}

TEST(ElementwiseKernelTest, BiasActRowsIsBitIdenticalAcrossIsas) {
  Rng rng(19);
  for (size_t n : kLengths) {
    for (FusedAct act :
         {FusedAct::kNone, FusedAct::kRelu, FusedAct::kLeakyRelu}) {
      const size_t rows = 3;
      const std::vector<double> bias = RandomVec(n, &rng);
      std::vector<double> x_scalar = RandomVec(rows * n, &rng);
      std::vector<double> x_simd = x_scalar;
      {
        ScopedForceScalar guard(true);
        BiasActRowsF64(x_scalar.data(), bias.data(), rows, n, act);
      }
      if (!SimdActiveByDefault()) continue;
      BiasActRowsF64(x_simd.data(), bias.data(), rows, n, act);
      EXPECT_TRUE(BitIdentical(x_scalar, x_simd))
          << "n=" << n << " act=" << static_cast<int>(act);
    }
  }
}

TEST(ElementwiseKernelTest, LeakyReluMatchesActivateValueFormula) {
  // The fused activation must reproduce x > 0 ? x : 0.01·x exactly,
  // including at ±0 and negative values.
  std::vector<double> x = {-2.0, -0.5, -0.0, 0.0, 0.5, 2.0};
  std::vector<double> bias(x.size(), 0.0);
  std::vector<double> expected;
  for (double v : x) expected.push_back(v > 0.0 ? v : 0.01 * v);
  for (bool force : {true, false}) {
    if (!force && !SimdActiveByDefault()) continue;
    ScopedForceScalar guard(force);
    std::vector<double> y = x;
    BiasActRowsF64(y.data(), bias.data(), 1, y.size(), FusedAct::kLeakyRelu);
    for (size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], expected[i]);
  }
}

// --- reduction kernels: tolerance parity ------------------------------

TEST(ReductionKernelTest, DotF64ParityAcrossShapes) {
  Rng rng(23);
  for (size_t n : kLengths) {
    const std::vector<double> a = RandomVec(n, &rng);
    const std::vector<double> b = RandomVec(n, &rng);
    double scalar_dot;
    {
      ScopedForceScalar guard(true);
      scalar_dot = DotF64(a.data(), b.data(), n);
    }
    if (n == 0) EXPECT_EQ(scalar_dot, 0.0);
    if (!SimdActiveByDefault()) continue;
    const double simd_dot = DotF64(a.data(), b.data(), n);
    const double scale =
        std::max({std::abs(scalar_dot), std::abs(simd_dot), 1.0});
    EXPECT_LE(std::abs(scalar_dot - simd_dot), 1e-12 * scale) << "n=" << n;
  }
}

TEST(ReductionKernelTest, MacF64ParityAcrossShapes) {
  Rng rng(29);
  for (size_t n : kLengths) {
    const std::vector<double> x = RandomVec(n, &rng);
    std::vector<double> acc_scalar = RandomVec(n, &rng);
    std::vector<double> acc_simd = acc_scalar;
    {
      ScopedForceScalar guard(true);
      MacF64(acc_scalar.data(), x.data(), 1.7, n);
    }
    if (!SimdActiveByDefault()) continue;
    MacF64(acc_simd.data(), x.data(), 1.7, n);
    for (size_t i = 0; i < n; ++i) {
      const double scale =
          std::max({std::abs(acc_scalar[i]), std::abs(acc_simd[i]), 1.0});
      // One FMA per element: rounding-level difference only.
      EXPECT_LE(std::abs(acc_scalar[i] - acc_simd[i]), 1e-15 * scale)
          << "n=" << n << " i=" << i;
    }
  }
}

// --- alignment: kernels must tolerate any 8-byte offset ---------------

// nn::Matrix rows carry no 32-byte alignment guarantee, and the batch
// engine slices rows at arbitrary column offsets. Shift every input and
// output by one double off whatever alignment the allocator produced so
// an aligned-load instruction would fault or produce garbage.
TEST(AlignmentKernelTest, KernelsAcceptDeliberatelyMisalignedRows) {
  Rng rng(43);
  const size_t m = 3, k = 21, n = 19;  // odd tails everywhere
  std::vector<double> a_buf = RandomVec(m * k + 1, &rng);
  std::vector<double> b_buf = RandomVec(k * n + 1, &rng);
  std::vector<double> out_buf(m * n + 1, 0.0);
  const double* a = a_buf.data() + 1;
  const double* b = b_buf.data() + 1;
  double* out = out_buf.data() + 1;

  std::vector<double> ref(m * n);
  {
    ScopedForceScalar guard(true);
    GemmRowMajorF64(a, m, k, b, n, ref.data());
  }
  GemmRowMajorF64(a, m, k, b, n, out);
  for (size_t i = 0; i < m * n; ++i) {
    const double scale = std::max({std::abs(ref[i]), std::abs(out[i]), 1.0});
    EXPECT_LE(std::abs(ref[i] - out[i]), 1e-12 * scale) << "i=" << i;
  }

  // Element-wise kernels at the same misaligned offsets stay bit-exact.
  std::vector<double> bias_buf = RandomVec(n + 1, &rng);
  std::vector<double> x_scalar(ref), x_simd(ref);
  {
    ScopedForceScalar guard(true);
    BiasActRowsF64(x_scalar.data(), bias_buf.data() + 1, m, n,
                   FusedAct::kLeakyRelu);
  }
  BiasActRowsF64(x_simd.data(), bias_buf.data() + 1, m, n,
                 FusedAct::kLeakyRelu);
  EXPECT_EQ(
      std::memcmp(x_scalar.data(), x_simd.data(), m * n * sizeof(double)), 0);

  const double* rows[3] = {out, out + n, out + 2 * n};
  std::vector<double> mean_scalar(n), mean_simd(n);
  {
    ScopedForceScalar guard(true);
    MeanRowsF64(mean_scalar.data(), rows, 3, n);
  }
  MeanRowsF64(mean_simd.data(), rows, 3, n);
  EXPECT_EQ(
      std::memcmp(mean_scalar.data(), mean_simd.data(), n * sizeof(double)),
      0);

  // The lane-split reduction at the same misaligned offsets.
  double scalar_dot;
  {
    ScopedForceScalar guard(true);
    scalar_dot = DotF64(a, b, n);
  }
  const double simd_dot = DotF64(a, b, n);
  EXPECT_LE(std::abs(scalar_dot - simd_dot),
            1e-12 * std::max({std::abs(scalar_dot), std::abs(simd_dot), 1.0}));
}

}  // namespace
}  // namespace zerotune::nn::kernels
