/**
 * @file
 * An independent double-precision forward pass, written in the
 * benchmark from each layer's public parameters.  It shares no
 * arithmetic with the program: it checks that the reuse and
 * from-scratch paths both compute the layer's function.
 */

#ifndef REUSE_PERFBENCH_REFERENCE_H
#define REUSE_PERFBENCH_REFERENCE_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/compiled_plan.h"
#include "kernels/quant_scan.h"
#include "tensor/tensor.h"

namespace perfbench {

/**
 * Quantization index of `v`, recomputed from the quantizer's
 * parameters: round-half-away of v/step, clamped to the index range.
 */
int32_t quantIndexOf(const reuse::kernels::QuantScanParams &q, float v);

/** The value index `idx` stands for (idx * step, in float). */
float centroidOf(const reuse::kernels::QuantScanParams &q, int32_t idx);

/**
 * Runs one plan step in double precision on `input`: quantizes it
 * when the step reuses, applies the layer, then its fused activation.
 * Returns false with `why` set for a layer kind it does not model.
 */
bool referenceStep(const reuse::ir::PlanStep &step,
                   const reuse::Tensor &input, std::vector<double> &out,
                   std::string *why);

/**
 * Largest |ref - got| relative to the largest |ref| (absolute when
 * the reference is all zeros).
 */
double relativeError(const std::vector<double> &ref,
                     const reuse::Tensor &got);

} // namespace perfbench

#endif // REUSE_PERFBENCH_REFERENCE_H
