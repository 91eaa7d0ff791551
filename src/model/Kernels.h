//===- model/Kernels.h - Raw float kernels ------------------------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The raw kernels under the autograd ops and the allocation-free decode
/// step: GEMMs and the row formulas (bias add, softmax, layer norm). Each
/// formula has exactly one implementation here; the autograd forward passes
/// and CodeBE::decodeStep both call it.
///
/// fp32 contract: every output element is one fixed chain of separately
/// rounded multiplies and adds in ascending inner-dimension order. The
/// SIMD bodies vectorize across output columns only, so each lane runs the
/// scalar chain unchanged and the results are bit-identical to the scalar
/// bodies (which stay as the reference and the only path off x86). The
/// library is compiled with -ffp-contract=off so no compiler fuses a
/// multiply-add pair into an FMA (see DESIGN.md §9).
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_MODEL_KERNELS_H
#define VEGA_MODEL_KERNELS_H

#if defined(__x86_64__) || defined(__i386__)
#define VEGA_KERNELS_X86 1
#endif

namespace vega {
namespace detail {

/// Instruction-set level of the fp32 GEMM bodies.
enum class KernelIsa { Scalar, AVX2, AVX512F };

/// The level the dispatcher picked, once, from CPUID: the widest body the
/// host (CPU and OS) supports.
KernelIsa kernelIsa();

/// "scalar" / "avx2" / "avx512f".
const char *kernelIsaName(KernelIsa Isa);

/// True when this build has a body for \p Isa and the host can run it.
bool kernelIsaSupported(KernelIsa Isa);

// ---- fp32 GEMMs (dispatched to the kernelIsa() body) ----

/// C += A·B (A: M×K, B: K×N, C: M×N). Zero entries of A (either sign) are
/// skipped: their products are never formed, so an inf/NaN in the matching
/// row of B does not reach C (attention rows are sparse after masking).
void gemmAccum(const float *A, const float *B, float *C, int M, int K,
               int N);

/// gemmAccum over strided operands: row I of A starts at A + I·LdA, row P
/// of B at B + P·LdB, row I of C at C + I·LdC.
void gemmAccumStrided(const float *A, int LdA, const float *B, int LdB,
                      float *C, int LdC, int M, int K, int N);

/// C = A·Bᵀ (A: M×K, B: N×K, C: M×N). Every element starts from +0 and
/// forms all K products (no skip).
void gemmNT(const float *A, const float *B, float *C, int M, int K, int N);

/// C = A·B (A: M×K, B: K×N) with gemmNT's per-element chain: +0 plus every
/// product, no skip. gemmDense(A, Bᵀ) is bit-identical to gemmNT(A, B), so
/// callers holding a transposed operand skip gemmNT's panel packing.
void gemmDense(const float *A, const float *B, float *C, int M, int K,
               int N);

/// C += A·Bᵀ — the dA = dO·B step of matmulNT/matmul backward (scalar).
void gemmNTAccum(const float *A, const float *B, float *C, int M, int K,
                 int N);

/// C += Aᵀ·G (A: M×K, G: M×N, C: K×N) — the dB = Aᵀ·dO step of matmul
/// backward, preserving the skip on zero A entries (scalar).
void gemmTNAccum(const float *A, const float *G, float *C, int M, int K,
                 int N);

// ---- Per-ISA bodies, exposed so tests can hold each to the scalar one ----

void gemmAccumScalar(const float *A, const float *B, float *C, int M, int K,
                     int N);
void gemmNTScalar(const float *A, const float *B, float *C, int M, int K,
                  int N);
void gemmDenseScalar(const float *A, const float *B, float *C, int M, int K,
                     int N);
#ifdef VEGA_KERNELS_X86
void gemmAccumAVX2(const float *A, const float *B, float *C, int M, int K,
                   int N);
void gemmNTAVX2(const float *A, const float *B, float *C, int M, int K,
                int N);
void gemmDenseAVX2(const float *A, const float *B, float *C, int M, int K,
                   int N);
void gemmAccumAVX512F(const float *A, const float *B, float *C, int M, int K,
                      int N);
void gemmNTAVX512F(const float *A, const float *B, float *C, int M, int K,
                   int N);
void gemmDenseAVX512F(const float *A, const float *B, float *C, int M, int K,
                      int N);
#endif

// ---- Row formulas ----

/// Out[i][j] = A[i][j] + Bias[j] (M×N; Out may alias A).
void addBiasRows(const float *A, const float *Bias, float *Out, int M, int N);

/// One softmax row: Out = softmax(X + Mask) over N entries (\p Mask may be
/// null). Out may alias X.
void softmaxRow(const float *X, const float *Mask, float *Out, int N);

/// One layer-norm row: Out = (X − mean)·invstd·Gamma + Beta over C
/// entries, reporting the row's mean and inverse standard deviation (the
/// backward pass reuses them). Out must not alias X.
void layerNormRow(const float *X, const float *Gamma, const float *Beta,
                  float *Out, int C, float &Mean, float &InvStd);

} // namespace detail
} // namespace vega

#endif // VEGA_MODEL_KERNELS_H
