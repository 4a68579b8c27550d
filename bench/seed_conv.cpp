// Frozen copy of the seed conv fast path that the kernel engine replaced:
// im2col with one contiguous (c, m, n)-ordered patch per output pixel, then a
// GEMM whose pixels are tiled so a col tile stays cache-resident across every
// kernel row, each output element one bias-seeded accumulator. It is the
// fixed baseline of bench_kernels' >= 3x conv gate. It lives in its own
// translation unit, as it did in the library: compiled into bench_kernels.cpp
// the same loops were placed differently and ran up to 1.5x slower on an
// AVX2 host, which would have moved the baseline.
#include <algorithm>

#include "nn/conv.hpp"

using namespace cnn2fpga;

void seed_blocked_conv(const nn::Conv2D& conv, const tensor::Tensor& x, tensor::Tensor& out,
                       float* col) {
  const std::size_t in_c = conv.in_channels(), kh = conv.kernel_h(), kw = conv.kernel_w();
  const std::size_t ih = x.shape().height(), iw = x.shape().width();
  const std::size_t oh = out.shape().height(), ow = out.shape().width();
  const std::size_t patch = in_c * kh * kw;
  const std::size_t pixels = oh * ow;
  for (std::size_t i = 0; i < oh; ++i) {
    for (std::size_t j = 0; j < ow; ++j) {
      float* patch_out = col + (i * ow + j) * patch;
      for (std::size_t c = 0; c < in_c; ++c) {
        const float* xc = x.data() + c * ih * iw;
        for (std::size_t m = 0; m < kh; ++m) {
          const float* row = xc + (i + m) * iw + j;
          for (std::size_t n = 0; n < kw; ++n) *patch_out++ = row[n];
        }
      }
    }
  }
  constexpr std::size_t kPixelTile = 64;
  const float* w = conv.weights().data();
  float* o = out.data();
  for (std::size_t p0 = 0; p0 < pixels; p0 += kPixelTile) {
    const std::size_t p1 = std::min(pixels, p0 + kPixelTile);
    for (std::size_t k = 0; k < conv.out_channels(); ++k) {
      const float* wk = w + k * patch;
      const float bk = conv.bias()[k];
      float* ok = o + k * pixels;
      for (std::size_t p = p0; p < p1; ++p) {
        const float* cp = col + p * patch;
        float acc = bk;
        for (std::size_t q = 0; q < patch; ++q) acc += wk[q] * cp[q];
        ok[p] = acc;
      }
    }
  }
}
