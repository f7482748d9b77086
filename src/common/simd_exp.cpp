// simd::exp_libm: glibc's table-driven exp (the ARM optimized-routines
// algorithm glibc >= 2.28 ships, N = 128, degree-5 polynomial) ported
// lane for lane to AVX-512 / AVX2, with glibc's fused multiply-adds
// written out explicitly — the library builds with -ffp-contract=off,
// and an unfused evaluation differs from glibc on about 1 input in 10^4.
//
// Only the main path is vectorized: 2^-54 <= |x| < 512.  Every other
// lane (tiny, huge, infinite, NaN) is redone by scalar std::exp, so the
// over/underflow and subnormal handling is libm's own.  A one-time
// start-up self-check compares the kernel bitwise with std::exp on a
// fixed input set; if any input differs (another libc, a libm built
// without FMA), exp_libm stays the plain libm loop.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "resipe/common/rng.hpp"
#include "resipe/common/simd.hpp"

namespace resipe::simd {
namespace {

#if defined(RESIPE_SIMD_AVX512) || defined(RESIPE_SIMD_AVX2)
#define RESIPE_EXP_LIBM_VECTOR 1

// 2^(k/128) as (tail, scale - (k << 45)) word pairs; see the generator.
alignas(kAlignment) constexpr std::uint64_t kTable[256] = {
#include "exp_table.inc"
};

constexpr double kInvLn2N = 0x1.71547652b82fep0 * 128;
constexpr double kShift = 0x1.8p52;
constexpr double kNegLn2HiN = -0x1.62e42fefa0000p-8;
constexpr double kNegLn2LoN = -0x1.cf79abc9e3b3ap-47;
constexpr double kC2 = 0x1.ffffffffffdbdp-2;
constexpr double kC3 = 0x1.555555555543cp-3;
constexpr double kC4 = 0x1.55555cf172b91p-5;
constexpr double kC5 = 0x1.1111167a4d017p-7;
// Biased exponents of 2^-54 and 512: the table path takes
// kTopTiny <= top12(|x|) < kTopBig.
constexpr long long kTopTiny = 969;
constexpr long long kTopBig = 1032;

// Redoes the lanes flagged in `special` with libm, from the saved
// inputs (out may alias the caller's input array).
void libm_lanes(const double* x, double* out, unsigned special) {
  for (; special != 0; special &= special - 1) {
    const int lane = __builtin_ctz(special);
    out[lane] = std::exp(x[lane]);
  }
}

#if defined(RESIPE_SIMD_AVX512)

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

constexpr std::size_t kLanes = 8;

// One vector of exp(in[0..8)) into out[0..8).
void exp_block(const double* in, double* out) {
  const __m512d x = _mm512_loadu_pd(in);
  const __m512i abstop = _mm512_and_si512(
      _mm512_srli_epi64(_mm512_castpd_si512(x), 52), _mm512_set1_epi64(0x7ff));
  const unsigned special = _mm512_cmpge_epu64_mask(
      _mm512_sub_epi64(abstop, _mm512_set1_epi64(kTopTiny)),
      _mm512_set1_epi64(kTopBig - kTopTiny));

  // x = k ln2/N + r; kd is k rounded, ki its bits (k in the low word).
  __m512d kd = _mm512_fmadd_pd(_mm512_set1_pd(kInvLn2N), x,
                               _mm512_set1_pd(kShift));
  const __m512i ki = _mm512_castpd_si512(kd);
  kd = _mm512_sub_pd(kd, _mm512_set1_pd(kShift));
  const __m512d r = _mm512_fmadd_pd(
      kd, _mm512_set1_pd(kNegLn2LoN),
      _mm512_fmadd_pd(kd, _mm512_set1_pd(kNegLn2HiN), x));

  // 2^(k/N) ~= scale * (1 + tail).
  const __m512i idx = _mm512_slli_epi64(
      _mm512_and_si512(ki, _mm512_set1_epi64(127)), 1);
  const __m512d tail = _mm512_i64gather_pd(idx, kTable, 8);
  const __m512i sbits = _mm512_add_epi64(
      _mm512_i64gather_epi64(idx, kTable + 1, 8), _mm512_slli_epi64(ki, 45));
  const __m512d scale = _mm512_castsi512_pd(sbits);

  const __m512d r2 = _mm512_mul_pd(r, r);
  const __m512d tmp = _mm512_fmadd_pd(
      _mm512_mul_pd(r2, r2),
      _mm512_fmadd_pd(r, _mm512_set1_pd(kC5), _mm512_set1_pd(kC4)),
      _mm512_fmadd_pd(
          r2, _mm512_fmadd_pd(r, _mm512_set1_pd(kC3), _mm512_set1_pd(kC2)),
          _mm512_add_pd(tail, r)));
  const __m512d y = _mm512_fmadd_pd(scale, tmp, scale);

  if (special == 0) {
    _mm512_storeu_pd(out, y);
    return;
  }
  alignas(kAlignment) double saved[kLanes];
  _mm512_store_pd(saved, x);
  _mm512_storeu_pd(out, y);
  libm_lanes(saved, out, special);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#else  // AVX2 + FMA

constexpr std::size_t kLanes = 4;

void exp_block(const double* in, double* out) {
  const __m256d x = _mm256_loadu_pd(in);
  const __m256i abstop = _mm256_and_si256(
      _mm256_srli_epi64(_mm256_castpd_si256(x), 52),
      _mm256_set1_epi64x(0x7ff));
  // abstop is in [0, 2047], so the signed compares are exact.
  const __m256i outside = _mm256_or_si256(
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(kTopTiny), abstop),
      _mm256_cmpgt_epi64(abstop, _mm256_set1_epi64x(kTopBig - 1)));
  const unsigned special = static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_castsi256_pd(outside)));

  __m256d kd = _mm256_fmadd_pd(_mm256_set1_pd(kInvLn2N), x,
                               _mm256_set1_pd(kShift));
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, _mm256_set1_pd(kShift));
  const __m256d r = _mm256_fmadd_pd(
      kd, _mm256_set1_pd(kNegLn2LoN),
      _mm256_fmadd_pd(kd, _mm256_set1_pd(kNegLn2HiN), x));

  const __m256i idx = _mm256_slli_epi64(
      _mm256_and_si256(ki, _mm256_set1_epi64x(127)), 1);
  const auto* table = reinterpret_cast<const long long*>(kTable);
  const __m256d tail = _mm256_i64gather_pd(
      reinterpret_cast<const double*>(kTable), idx, 8);
  const __m256i sbits = _mm256_add_epi64(
      _mm256_i64gather_epi64(table + 1, idx, 8), _mm256_slli_epi64(ki, 45));
  const __m256d scale = _mm256_castsi256_pd(sbits);

  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d tmp = _mm256_fmadd_pd(
      _mm256_mul_pd(r2, r2),
      _mm256_fmadd_pd(r, _mm256_set1_pd(kC5), _mm256_set1_pd(kC4)),
      _mm256_fmadd_pd(
          r2, _mm256_fmadd_pd(r, _mm256_set1_pd(kC3), _mm256_set1_pd(kC2)),
          _mm256_add_pd(tail, r)));
  const __m256d y = _mm256_fmadd_pd(scale, tmp, scale);

  if (special == 0) {
    _mm256_storeu_pd(out, y);
    return;
  }
  alignas(kAlignment) double saved[kLanes];
  _mm256_store_pd(saved, x);
  _mm256_storeu_pd(out, y);
  libm_lanes(saved, out, special);
}

#endif

void exp_vector(const double* in, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) exp_block(in + i, out + i);
  if (i < n) {
    // Tail: pad with 1.0 (a table-path input) and run one more block.
    double x[kLanes];
    double y[kLanes];
    std::fill(x, x + kLanes, 1.0);
    std::copy(in + i, in + n, x);
    exp_block(x, y);
    std::copy(y, y + (n - i), out + i);
  }
}

#endif  // AVX-512 || AVX2

constexpr double kInf = std::numeric_limits<double>::infinity();

// Inputs where an unfused evaluation of the same algorithm differs
// from glibc (found by search over [-40, 0]): all-unfused, `tail + r`
// not fused into the r2 term, and `scale + scale * tmp` unfused.
constexpr double kFmaWitnesses[] = {
    -0x1.a845c7d1d9068p+2, -0x1.e2fc82272e028p+4, -0x1.b27c0d0b079ecp+4,
    -0x1.f598c6e17a368p+4, -0x1.6d53e5ddfcb7cp+3, -0x1.167970c48c786p+5,
    -0x1.87c94ba00b518p+3, -0x1.d42db3dccc30ap+4, -0x1.75bf8ef9519bap+4,
    -0x1.e8f4ccd3d346cp+3, -0x1.8b7beb1b162acp+4, -0x1.907dbb5dc1618p+2,
    -0x1.a5195bbc88b9bp+4, -0x1.0c0ce0563dd9p+2,  -0x1.0f2c8e0602cp+2,
    -0x1.2e1a026975cddp+5, -0x1.9b6eb9ea38d18p+3, -0x1.794777b025aep+1,
};

std::vector<double> build_check_inputs() {
  std::vector<double> v = {
      0.0, -0.0, 1.0, -1.0, 0.5, -0.5,
      0x1p-54, -0x1p-54, 0x1p-53, -0x1p-53,
      std::nextafter(0x1p-54, 0.0), std::nextafter(0x1p-54, 1.0),
      std::nextafter(-0x1p-54, 0.0), std::nextafter(-0x1p-54, -1.0),
      0x1p-1074, -0x1p-1074, 1e-300, -1e-300,
      511.99, -511.99, std::nextafter(512.0, 0.0), -std::nextafter(512.0, 0.0),
      512.0, -512.0, 708.0, -708.0, 709.78, 709.79, 745.0, -745.0,
      -740.0, -720.0, -745.13, -746.0, 1e300, -1e300,
      kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
  };
  v.insert(v.end(), std::begin(kFmaWitnesses), std::end(kFmaWitnesses));
  // A fixed sweep over the recovery range and the whole table path.
  Rng rng(0xE4B11B);
  for (int i = 0; i < 1024; ++i) v.push_back(rng.uniform(-40.0, 0.0));
  for (int i = 0; i < 1024; ++i) v.push_back(rng.uniform(-1.0, 0.0));
  for (int i = 0; i < 1024; ++i) v.push_back(rng.uniform(-512.0, 512.0));
  return v;
}

std::atomic<bool> g_forced_failure{false};

#if defined(RESIPE_EXP_LIBM_VECTOR)
bool gate_passed() {
  static const bool passed = detail::exp_libm_self_check(
      [](double x) { return std::exp(x); });
  return passed;
}
#endif

}  // namespace

namespace detail {

const std::vector<double>& exp_libm_check_inputs() {
  static const std::vector<double> inputs = build_check_inputs();
  return inputs;
}

bool exp_libm_self_check(double (*reference)(double)) {
#if defined(RESIPE_EXP_LIBM_VECTOR)
  const std::vector<double>& in = exp_libm_check_inputs();
  std::vector<double> got(in.size());
  exp_vector(in.data(), got.data(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double want = reference(in[i]);
    if (std::memcmp(&got[i], &want, sizeof want) != 0) return false;
  }
  return true;
#else
  (void)reference;
  return false;
#endif
}

void force_exp_libm_self_check_failure(bool on) {
  g_forced_failure.store(on, std::memory_order_relaxed);
}

bool exp_libm_vectorized() {
#if defined(RESIPE_EXP_LIBM_VECTOR)
  return enabled() && !g_forced_failure.load(std::memory_order_relaxed) &&
         gate_passed();
#else
  return false;
#endif
}

}  // namespace detail

void exp_libm(const double* in, double* out, std::size_t n) {
#if defined(RESIPE_EXP_LIBM_VECTOR)
  if (detail::exp_libm_vectorized()) {
    exp_vector(in, out, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(in[i]);
}

}  // namespace resipe::simd
