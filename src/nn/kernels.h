#ifndef ZEROTUNE_NN_KERNELS_H_
#define ZEROTUNE_NN_KERNELS_H_

#include <cstddef>

namespace zerotune::nn::kernels {

/// The low-level compute kernels behind every inference-path matrix
/// operation (Linear/Mlp::ForwardValue and the batch-engine
/// aggregations). Two implementations exist behind one API:
///
///   - a portable scalar implementation that replicates the historical
///     arithmetic of nn::Matrix bit for bit (same summation order, no
///     fused rounding), and
///   - an AVX2+FMA implementation (kernels_avx2.cc, compiled with
///     -mavx2 -mfma) selected at runtime when the CPU supports both.
///
/// Numerics contract: every kernel processes rows independently, so
/// results never depend on how callers batch rows. GemmRowMajorF64 uses
/// the broadcast formulation under SIMD, so each output element still
/// sums its k terms in ascending order — its only SIMD-vs-scalar
/// difference is FMA's fused rounding (each multiply-add keeps its
/// infinitely precise product, perturbing a length-k sum by O(k·2⁻⁵³)
/// relative). MacF64 applies one FMA per element (no reassociation).
/// The explicit reduction kernel DotF64 additionally splits the sum
/// across vector lanes and reduces at the end, which reassociates;
/// callers must treat it as tolerance-equal, not bit-equal, across
/// implementations. Element-wise kernels (bias, activation, mean, add)
/// reassociate nothing, use no FMA, and are bit-identical across
/// implementations. All kernels are fp64: the batch engine and every
/// product path score in double precision only.
///
/// Alignment contract: nn::Matrix heap storage has no alignment
/// guarantee beyond operator new, and callers may pass pointers at any
/// 8-byte offset (e.g. a row at an odd column). Every SIMD kernel uses
/// unaligned loads/stores; none may assume 32-byte alignment. The
/// misaligned-row tests in tests/kernels_test.cc enforce this.
///
/// Dispatch: the AVX2 path requires (a) it was compiled in (x86-64
/// gcc/clang build without -DZEROTUNE_DISABLE_SIMD=ON), (b) the CPU
/// reports AVX2 and FMA, and (c) no ForceScalar(true) override is in
/// effect. Raw vendor intrinsics live only in src/nn/kernels_avx2.cc
/// (enforced by ztlint ZT-S007).

/// Which implementation ActiveIsa() resolved to.
enum class Isa {
  kScalar,
  kAvx2Fma,
};

/// Human-readable name ("scalar" / "avx2-fma") for logs and bench rows.
const char* IsaName(Isa isa);

/// True when the AVX2 translation unit was compiled into this binary.
bool SimdCompiledIn();

/// True when the running CPU supports AVX2 and FMA (cached after the
/// first call). False whenever SimdCompiledIn() is false.
bool SimdSupported();

/// The implementation the kernels below will use right now.
Isa ActiveIsa();

/// Test/bench hook: forces the scalar implementation even when SIMD is
/// available. Not meant to race with in-flight kernel calls — flip it
/// between measurements, not during them.
void ForceScalar(bool on);

/// Activations the fused bias+activation kernel applies in-register.
/// Tanh/sigmoid stay in the caller (libm calls don't vectorize here).
enum class FusedAct {
  kNone,
  kRelu,
  kLeakyRelu,  // x > 0 ? x : 0.01·x, matching nn::ActivateValue
};

/// out = a·b for row-major a (m×k), b (k×n), out (m×n). Overwrites out
/// completely (no zero-initialization required). Summation over k runs
/// in ascending order; zero a-elements contribute nothing either way.
void GemmRowMajorF64(const double* a, size_t m, size_t k, const double* b,
                     size_t n, double* out);

/// Fused multiply-accumulate: acc[i] += s · x[i] for i < n.
void MacF64(double* acc, const double* x, double s, size_t n);

/// Dot product. Scalar sums in ascending order; SIMD uses lane-split
/// partial sums (tolerance-equal, see the numerics contract above).
double DotF64(const double* a, const double* b, size_t n);

/// acc[i] += x[i] (exact in both implementations).
void AddF64(double* acc, const double* x, size_t n);

/// dst[i] = (rows[0][i] + rows[1][i] + … + rows[count-1][i]) · (1/count),
/// summed in row order — the batch engine's mean aggregation. count must
/// be ≥ 1. Bit-identical across implementations (the reduction runs over
/// rows per output element, in the same order, without FMA).
void MeanRowsF64(double* dst, const double* const* rows, size_t count,
                 size_t n);

/// In place over a row-major rows×n block: x[r][i] += bias[i], then the
/// fused activation. Bit-identical across implementations.
void BiasActRowsF64(double* x, const double* bias, size_t rows, size_t n,
                    FusedAct act);

}  // namespace zerotune::nn::kernels

#endif  // ZEROTUNE_NN_KERNELS_H_
