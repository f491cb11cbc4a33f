#ifndef VALMOD_SIMD_KERNELS_H_
#define VALMOD_SIMD_KERNELS_H_

// Per-ISA kernel table getters, one per translation unit. Only the targets
// CMake compiled in are declared available (VALMOD_SIMD_HAVE_* defines are
// set per-platform next to the per-file arch flags); dispatch.cc is the
// only consumer.

#include "simd/dispatch.h"

namespace valmod::simd {

const Kernels& ScalarKernels();

#if defined(VALMOD_SIMD_HAVE_AVX2)
const Kernels& Avx2Kernels();
#endif

#if defined(VALMOD_SIMD_HAVE_NEON)
const Kernels& NeonKernels();
#endif

}  // namespace valmod::simd

#endif  // VALMOD_SIMD_KERNELS_H_
