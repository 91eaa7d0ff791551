//===- model/Kernels.cpp - Raw float kernels --------------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "model/Kernels.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#ifdef VEGA_KERNELS_X86
#include <immintrin.h>
#endif

using namespace vega;
using namespace vega::detail;

// ---- Scalar reference bodies ----

namespace {

/// The scalar gemmAccum body over strided operands. A rank-4 block of
/// non-zero A entries updates each C element through one register (Acc),
/// which is the same chain as four separate `C += a·b` updates.
void accumRowsScalar(const float *A, int LdA, const float *B, int LdB,
                     float *C, int LdC, int M, int K, int N) {
  for (int I = 0; I < M; ++I) {
    const float *ARow = A + static_cast<size_t>(I) * LdA;
    float *CRow = C + static_cast<size_t>(I) * LdC;
    int P = 0;
    for (; P + 4 <= K; P += 4) {
      float A0 = ARow[P], A1 = ARow[P + 1], A2 = ARow[P + 2],
            A3 = ARow[P + 3];
      if (A0 != 0.0f && A1 != 0.0f && A2 != 0.0f && A3 != 0.0f) {
        const float *B0 = B + static_cast<size_t>(P) * LdB;
        const float *B1 = B0 + LdB, *B2 = B1 + LdB, *B3 = B2 + LdB;
        for (int J = 0; J < N; ++J) {
          float Acc = CRow[J];
          Acc += A0 * B0[J];
          Acc += A1 * B1[J];
          Acc += A2 * B2[J];
          Acc += A3 * B3[J];
          CRow[J] = Acc;
        }
      } else {
        // Mixed zero/non-zero rank-4 block: keep the skip-aware scalar
        // schedule so 0·x products are never formed (x may be inf/NaN).
        for (int T = 0; T < 4; ++T) {
          float AV = ARow[P + T];
          if (AV == 0.0f)
            continue;
          const float *BRow = B + static_cast<size_t>(P + T) * LdB;
          for (int J = 0; J < N; ++J)
            CRow[J] += AV * BRow[J];
        }
      }
    }
    for (; P < K; ++P) {
      float AV = ARow[P];
      if (AV == 0.0f)
        continue;
      const float *BRow = B + static_cast<size_t>(P) * LdB;
      for (int J = 0; J < N; ++J)
        CRow[J] += AV * BRow[J];
    }
  }
}

} // namespace

void vega::detail::gemmAccumScalar(const float *A, const float *B, float *C,
                                   int M, int K, int N) {
  accumRowsScalar(A, K, B, N, C, N, M, K, N);
}

void vega::detail::gemmNTScalar(const float *A, const float *B, float *C,
                                int M, int K, int N) {
  constexpr int JT = 4;
  int J = 0;
  if (M >= 8 && N >= JT) {
    // Packed panel path: interleave a 4-row B panel once and stream it for
    // every row of A, turning four strided operand streams into one.
    thread_local std::vector<float> Packed;
    Packed.resize(static_cast<size_t>(JT) * K);
    for (; J + JT <= N; J += JT) {
      const float *B0 = B + static_cast<size_t>(J) * K;
      const float *B1 = B0 + K, *B2 = B1 + K, *B3 = B2 + K;
      for (int P = 0; P < K; ++P) {
        Packed[static_cast<size_t>(P) * JT + 0] = B0[P];
        Packed[static_cast<size_t>(P) * JT + 1] = B1[P];
        Packed[static_cast<size_t>(P) * JT + 2] = B2[P];
        Packed[static_cast<size_t>(P) * JT + 3] = B3[P];
      }
      for (int I = 0; I < M; ++I) {
        const float *ARow = A + static_cast<size_t>(I) * K;
        const float *Pk = Packed.data();
        float C0 = 0.0f, C1 = 0.0f, C2 = 0.0f, C3 = 0.0f;
        for (int P = 0; P < K; ++P) {
          float AV = ARow[P];
          C0 += AV * Pk[0];
          C1 += AV * Pk[1];
          C2 += AV * Pk[2];
          C3 += AV * Pk[3];
          Pk += JT;
        }
        float *CRow = C + static_cast<size_t>(I) * N;
        CRow[J] = C0;
        CRow[J + 1] = C1;
        CRow[J + 2] = C2;
        CRow[J + 3] = C3;
      }
    }
  } else {
    for (; J + JT <= N; J += JT) {
      const float *B0 = B + static_cast<size_t>(J) * K;
      const float *B1 = B0 + K, *B2 = B1 + K, *B3 = B2 + K;
      for (int I = 0; I < M; ++I) {
        const float *ARow = A + static_cast<size_t>(I) * K;
        float C0 = 0.0f, C1 = 0.0f, C2 = 0.0f, C3 = 0.0f;
        for (int P = 0; P < K; ++P) {
          float AV = ARow[P];
          C0 += AV * B0[P];
          C1 += AV * B1[P];
          C2 += AV * B2[P];
          C3 += AV * B3[P];
        }
        float *CRow = C + static_cast<size_t>(I) * N;
        CRow[J] = C0;
        CRow[J + 1] = C1;
        CRow[J + 2] = C2;
        CRow[J + 3] = C3;
      }
    }
  }
  for (; J < N; ++J) {
    const float *BRow = B + static_cast<size_t>(J) * K;
    for (int I = 0; I < M; ++I) {
      const float *ARow = A + static_cast<size_t>(I) * K;
      float Acc = 0.0f;
      for (int P = 0; P < K; ++P)
        Acc += ARow[P] * BRow[P];
      C[static_cast<size_t>(I) * N + J] = Acc;
    }
  }
}

void vega::detail::gemmDenseScalar(const float *A, const float *B, float *C,
                                   int M, int K, int N) {
  for (int I = 0; I < M; ++I) {
    const float *ARow = A + static_cast<size_t>(I) * K;
    float *CRow = C + static_cast<size_t>(I) * N;
    std::fill(CRow, CRow + N, 0.0f);
    for (int P = 0; P < K; ++P) {
      const float AV = ARow[P];
      const float *BRow = B + static_cast<size_t>(P) * N;
      for (int J = 0; J < N; ++J)
        CRow[J] += AV * BRow[J];
    }
  }
}

// ---- SIMD bodies ----
//
// Both ISAs share one schedule. C is cut into tiles of RB rows × NV vectors;
// each tile keeps its RB·NV accumulators in registers for the whole K loop,
// so every lane runs exactly the scalar element chain (separate multiply
// and add, ascending k) while the independent chains of a tile hide the add
// latency. Accum tiles start from C and skip zero A entries the way the
// scalar gemmAccum does; Dense tiles start from +0 and form every product,
// the gemmNT chain. Column tails use masked loads and stores, which never
// touch memory outside the mask.

#ifdef VEGA_KERNELS_X86

#define VEGA_TARGET_AVX2 __attribute__((target("avx2")))
#define VEGA_TARGET_AVX512F __attribute__((target("avx512f")))

namespace {

/// gemmNT packs B into column panels for the SIMD bodies; below this many
/// rows of A the packing costs more than it saves and the scalar body runs.
constexpr int NTPackMinRows = 4;

// AVX-512F: 16 lanes, tiles up to 4 rows × 4 vectors (16 accumulators).

inline __mmask16 laneMask16(int Left) {
  if (Left >= 16)
    return static_cast<__mmask16>(0xFFFF);
  if (Left <= 0)
    return 0;
  return static_cast<__mmask16>((1u << Left) - 1u);
}

template <bool Accum, int RB, int NV>
VEGA_TARGET_AVX512F void tileAVX512F(const float *A, int LdA, const float *B,
                                     int LdB, float *C, int LdC, int K,
                                     int Cols) {
  __mmask16 Mask[NV];
#pragma GCC unroll 4
  for (int V = 0; V < NV; ++V)
    Mask[V] = laneMask16(Cols - 16 * V);
  __m512 Acc[RB][NV];
#pragma GCC unroll 4
  for (int R = 0; R < RB; ++R)
#pragma GCC unroll 4
    for (int V = 0; V < NV; ++V)
      Acc[R][V] =
          Accum ? _mm512_maskz_loadu_ps(
                      Mask[V], C + static_cast<size_t>(R) * LdC + 16 * V)
                : _mm512_setzero_ps();
  for (int P = 0; P < K; ++P) {
    const float *BRow = B + static_cast<size_t>(P) * LdB;
    __m512 BV[NV];
#pragma GCC unroll 4
    for (int V = 0; V < NV; ++V)
      BV[V] = _mm512_maskz_loadu_ps(Mask[V], BRow + 16 * V);
#pragma GCC unroll 4
    for (int R = 0; R < RB; ++R) {
      const float AV = A[static_cast<size_t>(R) * LdA + P];
      if (Accum && AV == 0.0f)
        continue;
      const __m512 AB = _mm512_set1_ps(AV);
#pragma GCC unroll 4
      for (int V = 0; V < NV; ++V)
        Acc[R][V] = _mm512_add_ps(Acc[R][V], _mm512_mul_ps(AB, BV[V]));
    }
  }
#pragma GCC unroll 4
  for (int R = 0; R < RB; ++R)
#pragma GCC unroll 4
    for (int V = 0; V < NV; ++V)
      _mm512_mask_storeu_ps(C + static_cast<size_t>(R) * LdC + 16 * V,
                            Mask[V], Acc[R][V]);
}

template <bool Accum, int RB>
VEGA_TARGET_AVX512F void tileAnyAVX512F(int NV, const float *A, int LdA,
                                        const float *B, int LdB, float *C,
                                        int LdC, int K, int Cols) {
  switch (NV) {
  case 1:
    return tileAVX512F<Accum, RB, 1>(A, LdA, B, LdB, C, LdC, K, Cols);
  case 2:
    return tileAVX512F<Accum, RB, 2>(A, LdA, B, LdB, C, LdC, K, Cols);
  case 3:
    return tileAVX512F<Accum, RB, 3>(A, LdA, B, LdB, C, LdC, K, Cols);
  default:
    return tileAVX512F<Accum, RB, 4>(A, LdA, B, LdB, C, LdC, K, Cols);
  }
}

template <bool Accum>
VEGA_TARGET_AVX512F void rowsAVX512F(const float *A, int LdA, const float *B,
                                     int LdB, float *C, int LdC, int M, int K,
                                     int N) {
  constexpr int W = 16, NVMax = 4, RBMax = 4;
  for (int J = 0; J < N; J += W * NVMax) {
    const int Cols = std::min(N - J, W * NVMax);
    const int NV = (Cols + W - 1) / W;
    int I = 0;
    for (; I + RBMax <= M; I += RBMax)
      tileAnyAVX512F<Accum, RBMax>(
          NV, A + static_cast<size_t>(I) * LdA, LdA, B + J, LdB,
          C + static_cast<size_t>(I) * LdC + J, LdC, K, Cols);
    for (; I < M; ++I)
      tileAnyAVX512F<Accum, 1>(NV, A + static_cast<size_t>(I) * LdA, LdA,
                               B + J, LdB,
                               C + static_cast<size_t>(I) * LdC + J, LdC, K,
                               Cols);
  }
}

// AVX2: 8 lanes, tiles up to 2 rows × 4 vectors (8 accumulators) so the
// tile, its B vectors and the broadcast fit the 16 ymm registers.

VEGA_TARGET_AVX2 inline __m256i laneMask8(int Left) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(Left),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

template <bool Accum, int RB, int NV>
VEGA_TARGET_AVX2 void tileAVX2(const float *A, int LdA, const float *B,
                               int LdB, float *C, int LdC, int K, int Cols) {
  __m256i Mask[NV];
#pragma GCC unroll 4
  for (int V = 0; V < NV; ++V)
    Mask[V] = laneMask8(Cols - 8 * V);
  __m256 Acc[RB][NV];
#pragma GCC unroll 4
  for (int R = 0; R < RB; ++R)
#pragma GCC unroll 4
    for (int V = 0; V < NV; ++V)
      Acc[R][V] = Accum ? _mm256_maskload_ps(
                              C + static_cast<size_t>(R) * LdC + 8 * V, Mask[V])
                        : _mm256_setzero_ps();
  for (int P = 0; P < K; ++P) {
    const float *BRow = B + static_cast<size_t>(P) * LdB;
    __m256 BV[NV];
#pragma GCC unroll 4
    for (int V = 0; V < NV; ++V)
      BV[V] = _mm256_maskload_ps(BRow + 8 * V, Mask[V]);
#pragma GCC unroll 4
    for (int R = 0; R < RB; ++R) {
      const float AV = A[static_cast<size_t>(R) * LdA + P];
      if (Accum && AV == 0.0f)
        continue;
      const __m256 AB = _mm256_set1_ps(AV);
#pragma GCC unroll 4
      for (int V = 0; V < NV; ++V)
        Acc[R][V] = _mm256_add_ps(Acc[R][V], _mm256_mul_ps(AB, BV[V]));
    }
  }
#pragma GCC unroll 4
  for (int R = 0; R < RB; ++R)
#pragma GCC unroll 4
    for (int V = 0; V < NV; ++V)
      _mm256_maskstore_ps(C + static_cast<size_t>(R) * LdC + 8 * V, Mask[V],
                          Acc[R][V]);
}

template <bool Accum, int RB>
VEGA_TARGET_AVX2 void tileAnyAVX2(int NV, const float *A, int LdA,
                                  const float *B, int LdB, float *C, int LdC,
                                  int K, int Cols) {
  switch (NV) {
  case 1:
    return tileAVX2<Accum, RB, 1>(A, LdA, B, LdB, C, LdC, K, Cols);
  case 2:
    return tileAVX2<Accum, RB, 2>(A, LdA, B, LdB, C, LdC, K, Cols);
  case 3:
    return tileAVX2<Accum, RB, 3>(A, LdA, B, LdB, C, LdC, K, Cols);
  default:
    return tileAVX2<Accum, RB, 4>(A, LdA, B, LdB, C, LdC, K, Cols);
  }
}

template <bool Accum>
VEGA_TARGET_AVX2 void rowsAVX2(const float *A, int LdA, const float *B,
                               int LdB, float *C, int LdC, int M, int K,
                               int N) {
  constexpr int W = 8, NVMax = 4, RBMax = 2;
  for (int J = 0; J < N; J += W * NVMax) {
    const int Cols = std::min(N - J, W * NVMax);
    const int NV = (Cols + W - 1) / W;
    int I = 0;
    for (; I + RBMax <= M; I += RBMax)
      tileAnyAVX2<Accum, RBMax>(NV, A + static_cast<size_t>(I) * LdA, LdA,
                                B + J, LdB,
                                C + static_cast<size_t>(I) * LdC + J, LdC, K,
                                Cols);
    for (; I < M; ++I)
      tileAnyAVX2<Accum, 1>(NV, A + static_cast<size_t>(I) * LdA, LdA, B + J,
                            LdB, C + static_cast<size_t>(I) * LdC + J, LdC, K,
                            Cols);
  }
}

using RowsFn = void (*)(const float *, int, const float *, int, float *, int,
                        int, int, int);

/// gemmNT through a SIMD Dense body: B is packed, \p PanelCols rows at a
/// time, into a transposed K×PanelCols panel, and each panel is one Dense
/// pass over all of A.
void packedNT(RowsFn Dense, int PanelCols, const float *A, const float *B,
              float *C, int M, int K, int N) {
  thread_local std::vector<float> Panel;
  Panel.resize(static_cast<size_t>(K) * PanelCols);
  for (int J = 0; J < N; J += PanelCols) {
    const int Cols = std::min(N - J, PanelCols);
    for (int Col = 0; Col < Cols; ++Col) {
      const float *BRow = B + static_cast<size_t>(J + Col) * K;
      for (int P = 0; P < K; ++P)
        Panel[static_cast<size_t>(P) * PanelCols + Col] = BRow[P];
    }
    Dense(A, K, Panel.data(), PanelCols, C + J, N, M, K, Cols);
  }
}

} // namespace

void vega::detail::gemmAccumAVX2(const float *A, const float *B, float *C,
                                 int M, int K, int N) {
  rowsAVX2<true>(A, K, B, N, C, N, M, K, N);
}

void vega::detail::gemmNTAVX2(const float *A, const float *B, float *C, int M,
                              int K, int N) {
  if (M < NTPackMinRows)
    return gemmNTScalar(A, B, C, M, K, N);
  packedNT(rowsAVX2<false>, 32, A, B, C, M, K, N);
}

void vega::detail::gemmDenseAVX2(const float *A, const float *B, float *C,
                                 int M, int K, int N) {
  rowsAVX2<false>(A, K, B, N, C, N, M, K, N);
}

void vega::detail::gemmAccumAVX512F(const float *A, const float *B, float *C,
                                    int M, int K, int N) {
  rowsAVX512F<true>(A, K, B, N, C, N, M, K, N);
}

void vega::detail::gemmNTAVX512F(const float *A, const float *B, float *C,
                                 int M, int K, int N) {
  if (M < NTPackMinRows)
    return gemmNTScalar(A, B, C, M, K, N);
  packedNT(rowsAVX512F<false>, 64, A, B, C, M, K, N);
}

void vega::detail::gemmDenseAVX512F(const float *A, const float *B, float *C,
                                    int M, int K, int N) {
  rowsAVX512F<false>(A, K, B, N, C, N, M, K, N);
}

#endif // VEGA_KERNELS_X86

// ---- Dispatch ----

namespace {

using GemmFn = void (*)(const float *, const float *, float *, int, int, int);
using StridedFn = void (*)(const float *, int, const float *, int, float *,
                           int, int, int, int);

struct GemmBodies {
  KernelIsa Isa;
  StridedFn AccumStrided;
  GemmFn NT;
  GemmFn Dense;
};

GemmBodies pickBodies() {
#ifdef VEGA_KERNELS_X86
  if (kernelIsaSupported(KernelIsa::AVX512F))
    return {KernelIsa::AVX512F, rowsAVX512F<true>, gemmNTAVX512F,
            gemmDenseAVX512F};
  if (kernelIsaSupported(KernelIsa::AVX2))
    return {KernelIsa::AVX2, rowsAVX2<true>, gemmNTAVX2, gemmDenseAVX2};
#endif
  return {KernelIsa::Scalar, accumRowsScalar, gemmNTScalar, gemmDenseScalar};
}

/// Chosen on first use and fixed for the life of the process, so every
/// GEMM in a run — training and inference alike — goes through one body.
const GemmBodies &bodies() {
  static const GemmBodies B = pickBodies();
  return B;
}

} // namespace

bool vega::detail::kernelIsaSupported(KernelIsa Isa) {
  switch (Isa) {
  case KernelIsa::Scalar:
    return true;
#ifdef VEGA_KERNELS_X86
  // libgcc fills the CPU model from CPUID (and the OS's saved vector
  // state) in a constructor that runs before any of ours.
  case KernelIsa::AVX2:
    return __builtin_cpu_supports("avx2");
  case KernelIsa::AVX512F:
    return __builtin_cpu_supports("avx512f");
#else
  case KernelIsa::AVX2:
  case KernelIsa::AVX512F:
    return false;
#endif
  }
  return false;
}

KernelIsa vega::detail::kernelIsa() { return bodies().Isa; }

const char *vega::detail::kernelIsaName(KernelIsa Isa) {
  switch (Isa) {
  case KernelIsa::Scalar:
    return "scalar";
  case KernelIsa::AVX2:
    return "avx2";
  case KernelIsa::AVX512F:
    return "avx512f";
  }
  return "scalar";
}

void vega::detail::gemmAccum(const float *A, const float *B, float *C, int M,
                             int K, int N) {
  bodies().AccumStrided(A, K, B, N, C, N, M, K, N);
}

void vega::detail::gemmAccumStrided(const float *A, int LdA, const float *B,
                                    int LdB, float *C, int LdC, int M, int K,
                                    int N) {
  bodies().AccumStrided(A, LdA, B, LdB, C, LdC, M, K, N);
}

void vega::detail::gemmNT(const float *A, const float *B, float *C, int M,
                          int K, int N) {
  bodies().NT(A, B, C, M, K, N);
}

void vega::detail::gemmDense(const float *A, const float *B, float *C, int M,
                             int K, int N) {
  bodies().Dense(A, B, C, M, K, N);
}

void vega::detail::gemmNTAccum(const float *A, const float *B, float *C,
                               int M, int K, int N) {
  constexpr int JT = 4;
  for (int I = 0; I < M; ++I) {
    const float *ARow = A + static_cast<size_t>(I) * K;
    float *CRow = C + static_cast<size_t>(I) * N;
    int J = 0;
    for (; J + JT <= N; J += JT) {
      const float *B0 = B + static_cast<size_t>(J) * K;
      const float *B1 = B0 + K, *B2 = B1 + K, *B3 = B2 + K;
      float C0 = 0.0f, C1 = 0.0f, C2 = 0.0f, C3 = 0.0f;
      for (int P = 0; P < K; ++P) {
        float AV = ARow[P];
        C0 += AV * B0[P];
        C1 += AV * B1[P];
        C2 += AV * B2[P];
        C3 += AV * B3[P];
      }
      CRow[J] += C0;
      CRow[J + 1] += C1;
      CRow[J + 2] += C2;
      CRow[J + 3] += C3;
    }
    for (; J < N; ++J) {
      const float *BRow = B + static_cast<size_t>(J) * K;
      float Acc = 0.0f;
      for (int P = 0; P < K; ++P)
        Acc += ARow[P] * BRow[P];
      CRow[J] += Acc;
    }
  }
}

void vega::detail::gemmTNAccum(const float *A, const float *G, float *C,
                               int M, int K, int N) {
  for (int I = 0; I < M; ++I) {
    const float *ARow = A + static_cast<size_t>(I) * K;
    const float *GRow = G + static_cast<size_t>(I) * N;
    int P = 0;
    for (; P + 2 <= K; P += 2) {
      float A0 = ARow[P], A1 = ARow[P + 1];
      float *C0 = C + static_cast<size_t>(P) * N;
      float *C1 = C0 + N;
      if (A0 != 0.0f && A1 != 0.0f) {
        for (int J = 0; J < N; ++J) {
          C0[J] += A0 * GRow[J];
          C1[J] += A1 * GRow[J];
        }
      } else {
        if (A0 != 0.0f)
          for (int J = 0; J < N; ++J)
            C0[J] += A0 * GRow[J];
        if (A1 != 0.0f)
          for (int J = 0; J < N; ++J)
            C1[J] += A1 * GRow[J];
      }
    }
    for (; P < K; ++P) {
      float AV = ARow[P];
      if (AV == 0.0f)
        continue;
      float *CRow = C + static_cast<size_t>(P) * N;
      for (int J = 0; J < N; ++J)
        CRow[J] += AV * GRow[J];
    }
  }
}

void vega::detail::addBiasRows(const float *A, const float *Bias, float *Out,
                               int M, int N) {
  for (int I = 0; I < M; ++I)
    for (int J = 0; J < N; ++J)
      Out[static_cast<size_t>(I) * N + J] =
          A[static_cast<size_t>(I) * N + J] + Bias[J];
}

void vega::detail::softmaxRow(const float *X, const float *Mask, float *Out,
                              int N) {
  float Max = -1e30f;
  for (int J = 0; J < N; ++J) {
    float V = X[J] + (Mask ? Mask[J] : 0.0f);
    Max = std::max(Max, V);
  }
  float Sum = 0.0f;
  for (int J = 0; J < N; ++J) {
    float V = X[J] + (Mask ? Mask[J] : 0.0f);
    float E = std::exp(V - Max);
    Out[J] = E;
    Sum += E;
  }
  for (int J = 0; J < N; ++J)
    Out[J] /= Sum;
}

void vega::detail::layerNormRow(const float *X, const float *Gamma,
                                const float *Beta, float *Out, int C,
                                float &Mean, float &InvStd) {
  float Mu = 0.0f;
  for (int J = 0; J < C; ++J)
    Mu += X[J];
  Mu /= C;
  float Var = 0.0f;
  for (int J = 0; J < C; ++J) {
    float D = X[J] - Mu;
    Var += D * D;
  }
  Var /= C;
  float Inv = 1.0f / std::sqrt(Var + 1e-5f);
  Mean = Mu;
  InvStd = Inv;
  for (int J = 0; J < C; ++J)
    Out[J] = (X[J] - Mu) * Inv * Gamma[J] + Beta[J];
}
