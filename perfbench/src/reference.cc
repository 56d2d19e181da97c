#include "reference.h"

#include <algorithm>
#include <cmath>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/conv3d.h"
#include "nn/fully_connected.h"
#include "nn/pnorm.h"
#include "nn/pooling.h"

namespace perfbench {

using namespace reuse;

int32_t
quantIndexOf(const kernels::QuantScanParams &q, float v)
{
    float x = v / q.step;
    x = std::min(std::max(x, static_cast<float>(q.min_index)),
                 static_cast<float>(q.max_index));
    // Round half away from zero, as std::lround does, deciding on the
    // exact fractional part (x + 0.5 could itself round in float).
    const float t = std::trunc(x);
    const float away = x >= 0.0f ? t + 1.0f : t - 1.0f;
    return static_cast<int32_t>(std::fabs(x - t) >= 0.5f ? away : t);
}

float
centroidOf(const kernels::QuantScanParams &q, int32_t idx)
{
    return static_cast<float>(idx) * q.step;
}

namespace {

void
fullyConnected(const FullyConnectedLayer &fc, const std::vector<double> &in,
               std::vector<double> &out)
{
    const int64_t n = fc.inputs();
    const int64_t m = fc.outputs();
    out.assign(static_cast<size_t>(m), 0.0);
    for (int64_t o = 0; o < m; ++o)
        out[static_cast<size_t>(o)] = fc.biases()[static_cast<size_t>(o)];
    // Weights are input-major: w[i * m + o].
    const float *w = fc.weights().data();
    for (int64_t i = 0; i < n; ++i) {
        const double x = in[static_cast<size_t>(i)];
        if (x == 0.0)
            continue;
        const float *row = w + i * m;
        for (int64_t o = 0; o < m; ++o)
            out[static_cast<size_t>(o)] += x * row[o];
    }
}

void
conv2d(const Conv2DLayer &conv, const Shape &in_shape,
       const std::vector<double> &in, std::vector<double> &out)
{
    const int64_t ci_n = conv.inChannels();
    const int64_t co_n = conv.outChannels();
    const int64_t k = conv.kernel();
    const int64_t s = conv.stride();
    const int64_t h = in_shape.dim(1);
    const int64_t w = in_shape.dim(2);
    const int64_t oh = (h - k) / s + 1;
    const int64_t ow = (w - k) / s + 1;
    const int64_t plane = oh * ow;
    out.assign(static_cast<size_t>(co_n * plane), 0.0);
    for (int64_t co = 0; co < co_n; ++co)
        std::fill_n(out.begin() + co * plane, plane,
                    static_cast<double>(conv.biases()[static_cast<size_t>(co)]));
    std::vector<double> wrow(static_cast<size_t>(co_n));
    for (int64_t ci = 0; ci < ci_n; ++ci) {
        for (int64_t ky = 0; ky < k; ++ky) {
            for (int64_t kx = 0; kx < k; ++kx) {
                for (int64_t co = 0; co < co_n; ++co)
                    wrow[static_cast<size_t>(co)] =
                        conv.weight(ci, co, ky, kx);
                for (int64_t oy = 0; oy < oh; ++oy) {
                    for (int64_t ox = 0; ox < ow; ++ox) {
                        const double x = in[static_cast<size_t>(
                            (ci * h + oy * s + ky) * w + ox * s + kx)];
                        if (x == 0.0)
                            continue;
                        double *o = out.data() + oy * ow + ox;
                        for (int64_t co = 0; co < co_n; ++co)
                            o[co * plane] += x * wrow[static_cast<size_t>(co)];
                    }
                }
            }
        }
    }
}

void
conv3d(const Conv3DLayer &conv, const Shape &in_shape,
       const std::vector<double> &in, std::vector<double> &out)
{
    const int64_t ci_n = conv.inChannels();
    const int64_t co_n = conv.outChannels();
    const int64_t k = conv.kernel();
    const int64_t pad = conv.pad();
    const int64_t d = in_shape.dim(1);
    const int64_t h = in_shape.dim(2);
    const int64_t w = in_shape.dim(3);
    const int64_t od = d + 2 * pad - k + 1;
    const int64_t oh = h + 2 * pad - k + 1;
    const int64_t ow = w + 2 * pad - k + 1;
    const int64_t vol = od * oh * ow;
    out.assign(static_cast<size_t>(co_n * vol), 0.0);
    for (int64_t co = 0; co < co_n; ++co)
        std::fill_n(out.begin() + co * vol, vol,
                    static_cast<double>(conv.biases()[static_cast<size_t>(co)]));
    // Flat weights, input-major with the output channel innermost:
    // w[(((ci * K + kd) * K + ky) * K + kx) * C_out + co].
    const float *wt = conv.weights().data();
    for (int64_t ci = 0; ci < ci_n; ++ci) {
        for (int64_t kd = 0; kd < k; ++kd) {
            for (int64_t ky = 0; ky < k; ++ky) {
                for (int64_t kx = 0; kx < k; ++kx) {
                    const float *wrow =
                        wt + (((ci * k + kd) * k + ky) * k + kx) * co_n;
                    for (int64_t oz = 0; oz < od; ++oz) {
                        const int64_t iz = oz - pad + kd;
                        if (iz < 0 || iz >= d)
                            continue;
                        for (int64_t oy = 0; oy < oh; ++oy) {
                            const int64_t iy = oy - pad + ky;
                            if (iy < 0 || iy >= h)
                                continue;
                            for (int64_t ox = 0; ox < ow; ++ox) {
                                const int64_t ix = ox - pad + kx;
                                if (ix < 0 || ix >= w)
                                    continue;
                                const double x = in[static_cast<size_t>(
                                    ((ci * d + iz) * h + iy) * w + ix)];
                                if (x == 0.0)
                                    continue;
                                double *o =
                                    out.data() + (oz * oh + oy) * ow + ox;
                                for (int64_t co = 0; co < co_n; ++co)
                                    o[co * vol] += x * wrow[co];
                            }
                        }
                    }
                }
            }
        }
    }
}

void
maxPool3d(const MaxPool3DLayer &pool, const Shape &in_shape,
          const std::vector<double> &in, std::vector<double> &out)
{
    const int64_t c = in_shape.dim(0);
    const int64_t d = in_shape.dim(1);
    const int64_t h = in_shape.dim(2);
    const int64_t w = in_shape.dim(3);
    const int64_t dw = pool.depthWindow();
    const int64_t sw = pool.spatialWindow();
    auto outDim = [&](int64_t v, int64_t win) {
        return pool.ceilMode() ? (v + win - 1) / win : v / win;
    };
    const int64_t od = outDim(d, dw);
    const int64_t oh = outDim(h, sw);
    const int64_t ow = outDim(w, sw);
    out.assign(static_cast<size_t>(c * od * oh * ow), 0.0);
    for (int64_t ci = 0; ci < c; ++ci)
        for (int64_t oz = 0; oz < od; ++oz)
            for (int64_t oy = 0; oy < oh; ++oy)
                for (int64_t ox = 0; ox < ow; ++ox) {
                    double m = -INFINITY;
                    for (int64_t z = oz * dw; z < std::min(d, (oz + 1) * dw); ++z)
                        for (int64_t y = oy * sw; y < std::min(h, (oy + 1) * sw); ++y)
                            for (int64_t x = ox * sw; x < std::min(w, (ox + 1) * sw); ++x)
                                m = std::max(m, in[static_cast<size_t>(
                                                    ((ci * d + z) * h + y) * w + x)]);
                    out[static_cast<size_t>(((ci * od + oz) * oh + oy) * ow + ox)] = m;
                }
}

bool
activation(ActivationKind kind, std::vector<double> &v)
{
    switch (kind) {
      case ActivationKind::ReLU:
        for (double &x : v)
            x = x > 0.0 ? x : 0.0;
        return true;
      case ActivationKind::Sigmoid:
        for (double &x : v)
            x = 1.0 / (1.0 + std::exp(-x));
        return true;
      case ActivationKind::Tanh:
        for (double &x : v)
            x = std::tanh(x);
        return true;
      case ActivationKind::Atan:
        for (double &x : v)
            x = std::atan(x);
        return true;
      case ActivationKind::Identity:
        return true;
      case ActivationKind::Softmax: {
        const double mx = *std::max_element(v.begin(), v.end());
        double sum = 0.0;
        for (double &x : v) {
            x = std::exp(x - mx);
            sum += x;
        }
        for (double &x : v)
            x /= sum;
        return true;
      }
    }
    return false;
}

bool
layerForward(const Layer &layer, const Shape &in_shape,
             const std::vector<double> &in, std::vector<double> &out,
             std::string *why)
{
    switch (layer.kind()) {
      case LayerKind::FullyConnected:
        fullyConnected(static_cast<const FullyConnectedLayer &>(layer), in,
                       out);
        return true;
      case LayerKind::Conv2D:
        conv2d(static_cast<const Conv2DLayer &>(layer), in_shape, in, out);
        return true;
      case LayerKind::Conv3D:
        conv3d(static_cast<const Conv3DLayer &>(layer), in_shape, in, out);
        return true;
      case LayerKind::MaxPool3D:
        maxPool3d(static_cast<const MaxPool3DLayer &>(layer), in_shape, in,
                  out);
        return true;
      case LayerKind::Flatten:
        out = in;
        return true;
      case LayerKind::Activation:
        // PNorm reports itself as an activation-kind layer; tell the
        // two apart by type.
        if (const auto *pn = dynamic_cast<const PNormLayer *>(&layer)) {
            const int64_t g = pn->group();
            out.assign(in.size() / static_cast<size_t>(g), 0.0);
            for (size_t j = 0; j < out.size(); ++j) {
                double s = 0.0;
                for (int64_t k = 0; k < g; ++k) {
                    const double x = in[j * static_cast<size_t>(g) +
                                        static_cast<size_t>(k)];
                    s += x * x;
                }
                out[j] = std::sqrt(s);
            }
            return true;
        }
        if (const auto *act = dynamic_cast<const ActivationLayer *>(&layer)) {
            out = in;
            return activation(act->activation(), out);
        }
        break;
      default:
        break;
    }
    if (why != nullptr)
        *why = std::string("no reference for layer ") + layer.name() +
               " of kind " + layerKindName(layer.kind());
    return false;
}

} // namespace

bool
referenceStep(const ir::PlanStep &step, const Tensor &input,
              std::vector<double> &out, std::string *why)
{
    std::vector<double> in(static_cast<size_t>(input.numel()));
    const bool quantized = step.mode == ir::ExecMode::FcReuse ||
                           step.mode == ir::ExecMode::ConvReuse;
    const kernels::QuantScanParams q =
        quantized ? step.quant.input->scanParams()
                  : kernels::QuantScanParams{1.0f, 0, 0, 0};
    for (int64_t i = 0; i < input.numel(); ++i) {
        const float x = input[i];
        in[static_cast<size_t>(i)] =
            quantized ? centroidOf(q, quantIndexOf(q, x)) : x;
    }
    if (!layerForward(*step.layer, input.shape(), in, out, why))
        return false;
    if (step.fusedActivation != nullptr) {
        std::vector<double> pre = std::move(out);
        return layerForward(*step.fusedActivation, step.outShape, pre, out,
                            why);
    }
    return true;
}

double
relativeError(const std::vector<double> &ref, const Tensor &got)
{
    if (static_cast<int64_t>(ref.size()) != got.numel())
        return INFINITY;
    double scale = 0.0;
    double err = 0.0;
    for (size_t i = 0; i < ref.size(); ++i) {
        scale = std::max(scale, std::fabs(ref[i]));
        err = std::max(err, std::fabs(ref[i] - static_cast<double>(
                                                   got[static_cast<int64_t>(i)])));
    }
    return scale > 0.0 ? err / scale : err;
}

} // namespace perfbench
