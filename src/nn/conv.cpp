#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "nn/layers.hpp"

namespace fedsz::nn {

namespace {

// Channels computed side by side by the backward kernels. They keep kLanes
// independent sums in a fixed-size array that only fixed-length loops
// touch, so the compiler holds it in vector registers; the channels-last
// scratch rows they read and write are padded to a multiple of kLanes.
// The kernels stay out of line ([[gnu::noinline]]): inlined into
// Conv2d::backward, GCC 12 no longer vectorizes some of their loops.
// tools/check_conv_kernels.sh, run in CI, fails when one is inlined or
// holds no packed multiplies.
constexpr std::int64_t kLanes = 8;

std::int64_t round_up(std::int64_t n) {
  return (n + kLanes - 1) / kLanes * kLanes;
}

struct Geometry {
  std::int64_t batch, in_c, h, w, out_c, ho, wo, k, stride, pad, groups;
  std::int64_t cin() const { return in_c / groups; }  // per group
  std::int64_t cout() const { return out_c / groups; }
  std::int64_t taps() const { return k * k; }
  bool depthwise() const { return cin() == 1 && cout() == 1; }
  bool pointwise() const { return k == 1 && stride == 1 && pad == 0; }
};

struct Range {
  std::int64_t lo, hi;
};

/// For every tap k along one axis, the outputs o in [lo, hi) whose input
/// index o * stride - pad + k lies in [0, n_in): where that tap is valid.
std::vector<Range> tap_ranges(const Geometry& g, std::int64_t n_out,
                              std::int64_t n_in) {
  std::vector<Range> ranges;
  for (std::int64_t k = 0; k < g.k; ++k) {
    const std::int64_t offset = k - g.pad;
    const std::int64_t lo =
        offset >= 0 ? 0 : (g.stride - 1 - offset) / g.stride;
    const std::int64_t hi =
        n_in <= offset ? 0 : (n_in - offset + g.stride - 1) / g.stride;
    ranges.push_back({lo, std::max(lo, std::min(n_out, hi))});
  }
  return ranges;
}

/// Outputs o in [lo, hi), ascending, that read input index i through some
/// tap k = i + pad - o * stride in [0, k).
Range reaching_outputs(const Geometry& g, std::int64_t i, std::int64_t n_out) {
  const std::int64_t top = i + g.pad;  // o * stride + k
  const std::int64_t first = top - g.k + 1;
  const std::int64_t lo = first <= 0 ? 0 : (first + g.stride - 1) / g.stride;
  return {lo, std::max(lo, std::min(n_out, top / g.stride + 1))};
}

/// acc + g * v where g != 0, else acc bit for bit: the direct loop's skip
/// of zero output gradients, for lanes whose gradients differ. The select
/// works on the bits, so the compiler keeps it branch-free.
inline float masked_add(float acc, float g, float v) {
  const float sum = acc + g * v;
  std::uint32_t a, s;
  std::memcpy(&a, &acc, sizeof(a));
  std::memcpy(&s, &sum, sizeof(s));
  const std::uint32_t keep = 0u - static_cast<std::uint32_t>(g != 0.0f);
  const std::uint32_t bits = (s & keep) | (a & ~keep);
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

// The dense-gradient schedule's input gradient runs one masked row per
// (input channel, output channel, output row, tap). On rows narrower than
// this it loses to the sparse schedule at every share of nonzero gradients.
constexpr std::int64_t kMinDenseRow = 32;

// The transposes below walk the planes in blocks of kBlock positions:
// planes a power-of-two size apart map to the same cache sets, so a walk
// one position at a time across all channels would evict its own lines.
constexpr std::int64_t kBlock = 16;

/// dst[p * stride + c] = src[c * plane + p] for c < channels: planes to
/// channels-last rows (padding lanes of dst are left as they are).
void to_channels_last(const float* src, std::int64_t channels,
                      std::int64_t plane, std::int64_t stride, float* dst) {
  for (std::int64_t p0 = 0; p0 < plane; p0 += kBlock) {
    const std::int64_t p1 = std::min(plane, p0 + kBlock);
    for (std::int64_t c = 0; c < channels; ++c)
      for (std::int64_t p = p0; p < p1; ++p)
        dst[p * stride + c] = src[c * plane + p];
  }
}

/// The inverse: dst[c * plane + p] = src[p * stride + c].
void to_planes(const float* src, std::int64_t channels, std::int64_t plane,
               std::int64_t stride, float* dst) {
  for (std::int64_t p0 = 0; p0 < plane; p0 += kBlock) {
    const std::int64_t p1 = std::min(plane, p0 + kBlock);
    for (std::int64_t c = 0; c < channels; ++c)
      for (std::int64_t p = p0; p < p1; ++p)
        dst[c * plane + p] = src[p * stride + c];
  }
}

// The forward's and the pointwise kernels' register block: kBlockOut
// channels times kBlockCols columns or plane positions, two Vecs per
// channel. GCC and Clang lower these vector types to SSE on the baseline
// x86-64 ISA.
typedef float Vec __attribute__((vector_size(16)));
typedef std::int32_t Mask __attribute__((vector_size(16)));
constexpr std::int64_t kVec = 4;
constexpr std::int64_t kBlockOut = 4;
constexpr std::int64_t kBlockCols = 2 * kVec;
// round_up's channels-last rows hold whole blocks of input channels.
static_assert(kBlockCols == kLanes);

Vec load(const float* p) {
  Vec v{};
  std::memcpy(&v, p, sizeof(v));
  return v;
}

Mask load_mask(const std::int32_t* p) {
  Mask m{};
  std::memcpy(&m, p, sizeof(m));
  return m;
}

Vec splat(float v) { return Vec{v, v, v, v}; }

/// dst[i] = lane i of the pair v, for i < n <= kBlockCols.
void store(const Vec (&v)[2], std::int64_t n, float* dst) {
  float out[kBlockCols] = {};
  std::memcpy(out, &v[0], sizeof(Vec));
  std::memcpy(out + kVec, &v[1], sizeof(Vec));
  if (n == kBlockCols)
    std::memcpy(dst, out, sizeof(out));
  else
    std::copy(out, out + n, dst);
}

// ---- forward ----

/// Any non-pointwise geometry. A block of kBlockOut output channels times
/// kBlockCols columns of one output row keeps one input channel's partial
/// sums in registers across every (kh, kw) tap, then adds them to the
/// block's outputs, in channel order. Each channel of a block reads its
/// own group's inputs, so depthwise layers block across groups.
///
/// A tap whose column falls in the padding reads a zero. With finite
/// weights its product is +-0, and adding +-0 leaves a partial sum bit for
/// bit: a partial starts at +0.0, so it is never -0.0. A non-finite weight
/// times that zero is NaN, so with kMasked a bitwise mask selects +0.0 in
/// place of each such product.
template <bool kMasked>
[[gnu::noinline]] void forward_blocked(const Geometry& g, const float* x,
                                       const float* w, const float* bias,
                                       float* y) {
  const std::int64_t cin = g.cin(), cout = g.cout(), K = g.k, KK = g.taps();
  const std::int64_t s = g.stride, out_plane = g.ho * g.wo;
  const std::int64_t chunks = (g.wo + kBlockCols - 1) / kBlockCols;
  const std::int64_t blocks = (g.out_c + kBlockOut - 1) / kBlockOut;
  // Each input row is copied zero-padded and split into s phase rows of
  // `len` values: phase p holds padded columns p, p + s, p + 2s, ... Tap kw
  // of output column o then reads phase kw % s at o + kw / s, contiguous
  // across a block's columns, and every load stays in bounds. Input columns
  // past the last phase row's end are read by no output.
  const std::int64_t len = chunks * kBlockCols + (K - 1) / s;
  const std::int64_t row_len = s * len, plane = g.h * row_len;
  const std::int64_t copy_end = std::min(g.pad + g.w, row_len);
  // Phase p's copied values: j in phases[p], padded column j * s + p.
  std::vector<Range> phases;
  for (std::int64_t p = 0; p < s; ++p)
    phases.push_back({std::max<std::int64_t>(0, (g.pad - p + s - 1) / s),
                      (copy_end - p + s - 1) / s});
  const auto split = [&](std::int64_t step, const float* src, float* dst) {
    for (std::int64_t p = 0; p < step; ++p)
      for (std::int64_t j = phases[p].lo; j < phases[p].hi; ++j)
        dst[p * len + j] = src[j * step + p - g.pad];
  };
  std::vector<float> xp(static_cast<std::size_t>(g.in_c * plane), 0.0f);
  std::vector<std::int64_t> tap_at(static_cast<std::size_t>(K));
  for (std::int64_t kw = 0; kw < K; ++kw) tap_at[kw] = kw % s * len + kw / s;
  // masks[(kw * chunks + c) * kBlockCols + i]: whether tap kw is valid for
  // output column c * kBlockCols + i.
  std::vector<std::int32_t> masks;
  if constexpr (kMasked) {
    const std::vector<Range> cols = tap_ranges(g, g.wo, g.w);
    for (std::int64_t kw = 0; kw < K; ++kw)
      for (std::int64_t o = 0; o < chunks * kBlockCols; ++o)
        masks.push_back(o >= cols[kw].lo && o < cols[kw].hi ? -1 : 0);
  }
  // wb[b * block_len + (ic * KK + tap) * kBlockOut + j]: block b's
  // weights, zero for the channels past out_c.
  const std::int64_t block_len = cin * KK * kBlockOut;
  std::vector<float> wb(static_cast<std::size_t>(blocks * block_len), 0.0f);
  for (std::int64_t oc = 0; oc < g.out_c; ++oc)
    for (std::int64_t i = 0; i < cin * KK; ++i)
      wb[oc / kBlockOut * block_len + i * kBlockOut + oc % kBlockOut] =
          w[oc * cin * KK + i];

  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t ch = 0; ch < g.in_c; ++ch) {
      for (std::int64_t h = 0; h < g.h; ++h) {
        const float* src = x + ((n * g.in_c + ch) * g.h + h) * g.w;
        float* dst = xp.data() + ch * plane + h * row_len;
        // A constant step lets the compiler vectorize stride 2's split.
        if (s == 2)
          split(2, src, dst);
        else
          split(s, src, dst);
      }
    }
    for (std::int64_t b = 0; b < blocks; ++b) {
      const std::int64_t oc0 = b * kBlockOut;
      const std::int64_t count = std::min(kBlockOut, g.out_c - oc0);
      // Each block channel's first input plane; those past out_c reuse 0's.
      const float* xl[kBlockOut];
      for (std::int64_t j = 0; j < kBlockOut; ++j)
        xl[j] = xp.data() + (j < count ? (oc0 + j) / cout * cin : 0) * plane;
      float b0[kBlockOut] = {};
      for (std::int64_t j = 0; j < count; ++j)
        if (bias) b0[j] = bias[oc0 + j];
      const float* wblock = wb.data() + b * block_len;
      for (std::int64_t ho = 0; ho < g.ho; ++ho) {
        const std::int64_t top = ho * s - g.pad;
        const std::int64_t kh_lo = std::max<std::int64_t>(0, -top);
        const std::int64_t kh_hi = std::min(K, g.h - top);
        for (std::int64_t c = 0; c < chunks; ++c) {
          Vec acc[kBlockOut][2] = {};
          for (std::int64_t j = 0; j < kBlockOut; ++j)
            acc[j][0] = acc[j][1] = splat(b0[j]);
          for (std::int64_t ic = 0; ic < cin; ++ic) {
            Vec part[kBlockOut][2] = {};
            for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
              const std::int64_t row = ic * plane + (top + kh) * row_len;
              const float* wt = wblock + (ic * KK + kh * K) * kBlockOut;
              for (std::int64_t kw = 0; kw < K; ++kw) {
                const std::int64_t at = row + tap_at[kw] + c * kBlockCols;
                for (std::int64_t j = 0; j < kBlockOut; ++j) {
                  const Vec wv = splat(wt[kw * kBlockOut + j]);
                  Vec p0 = load(xl[j] + at) * wv;
                  Vec p1 = load(xl[j] + at + kVec) * wv;
                  if constexpr (kMasked) {
                    const std::int32_t* m =
                        masks.data() + (kw * chunks + c) * kBlockCols;
                    p0 = (Vec)((Mask)p0 & load_mask(m));
                    p1 = (Vec)((Mask)p1 & load_mask(m + kVec));
                  }
                  part[j][0] += p0;
                  part[j][1] += p1;
                }
              }
            }
            for (std::int64_t j = 0; j < kBlockOut; ++j) {
              acc[j][0] += part[j][0];
              acc[j][1] += part[j][1];
            }
          }
          const std::int64_t o0 = c * kBlockCols;
          const std::int64_t n_cols = std::min(kBlockCols, g.wo - o0);
          for (std::int64_t j = 0; j < count; ++j)
            store(acc[j], n_cols,
                  y + (n * g.out_c + oc0 + j) * out_plane + ho * g.wo + o0);
        }
      }
    }
  }
}

// ---- pointwise ----
//
// A pointwise convolution (1x1, stride 1, unpadded) maps each plane
// position to itself: per group, a matrix product of the weights and the
// input planes. Its kernels hold a block of kBlockOut channels times
// kBlockCols plane positions, or kBlockOut output times kBlockCols input
// channels, in registers while they walk the channels or positions the
// block's sums run over.

/// The pointwise kernels' weights in blocks, each splatted across a Vec:
/// out[((grp * blocks + r / kBlockOut) * cols + c) * kBlockOut + r %
/// kBlockOut] holds entry (r, c) of group grp's rows x cols matrix,
/// w[grp * rows * cols + r * row_step + c * col_step], and zero for rows
/// past the last.
std::vector<Vec> block_rows(const float* w, std::int64_t groups,
                            std::int64_t rows, std::int64_t cols,
                            std::int64_t row_step, std::int64_t col_step) {
  const std::int64_t blocks = (rows + kBlockOut - 1) / kBlockOut;
  std::vector<Vec> out(
      static_cast<std::size_t>(groups * blocks * cols * kBlockOut), Vec{});
  for (std::int64_t grp = 0; grp < groups; ++grp)
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t c = 0; c < cols; ++c)
        out[((grp * blocks + r / kBlockOut) * cols + c) * kBlockOut +
            r % kBlockOut] =
            splat(w[grp * rows * cols + r * row_step + c * col_step]);
  return out;
}

/// One image's `channels` planes of `plane` values, `stride` (plane rounded
/// up to a multiple of kBlockCols) apart: the planes themselves when stride
/// is plane, else a copy in `buf`, so a block's loads stay in bounds.
const float* padded_planes(const float* src, std::int64_t channels,
                           std::int64_t plane, std::int64_t stride,
                           std::vector<float>& buf) {
  if (stride == plane) return src;
  buf.resize(static_cast<std::size_t>(channels * stride));
  for (std::int64_t c = 0; c < channels; ++c)
    std::copy(src + c * plane, src + (c + 1) * plane, buf.data() + c * stride);
  return buf.data();
}

/// Pointwise forward: a block of kBlockOut output channels of one group
/// times kBlockCols positions starts at the biases and adds each input
/// channel's product, ascending. The contract's 0.0f + v differs from v
/// only when v is -0.0, and adding -0.0 in place of +0.0 changes only a
/// -0.0 sum. A sum that has taken its first partial (never -0.0 itself) is
/// never -0.0, so only the first input channel adds the 0.0f.
[[gnu::noinline]] void forward_pointwise(const Geometry& g, const float* x,
                                         const float* w, const float* bias,
                                         float* y) {
  const std::int64_t cin = g.cin(), cout = g.cout(), plane = g.h * g.w;
  const std::int64_t chunks = (plane + kBlockCols - 1) / kBlockCols;
  const std::int64_t stride = chunks * kBlockCols;
  const std::int64_t blocks = (cout + kBlockOut - 1) / kBlockOut;
  const std::vector<Vec> wb = block_rows(w, g.groups, cout, cin, cin, 1);
  std::vector<float> buf;
  for (std::int64_t n = 0; n < g.batch; ++n) {
    const float* xn =
        padded_planes(x + n * g.in_c * plane, g.in_c, plane, stride, buf);
    for (std::int64_t grp = 0; grp < g.groups; ++grp) {
      for (std::int64_t b = 0; b < blocks; ++b) {
        const std::int64_t oc0 = grp * cout + b * kBlockOut;
        const std::int64_t count = std::min(kBlockOut, cout - b * kBlockOut);
        float b0[kBlockOut] = {};
        for (std::int64_t j = 0; j < count; ++j)
          if (bias) b0[j] = bias[oc0 + j];
        const Vec* wblock = wb.data() + (grp * blocks + b) * cin * kBlockOut;
        for (std::int64_t c = 0; c < chunks; ++c) {
          const float* xc = xn + grp * cin * stride + c * kBlockCols;
          // Input channel 0 adds 0.0f + v, the others v.
          const Vec x0 = load(xc), x1 = load(xc + kVec);
          Vec acc[kBlockOut][2] = {};
          for (std::int64_t j = 0; j < kBlockOut; ++j) {
            acc[j][0] = splat(b0[j]) + (Vec{} + x0 * wblock[j]);
            acc[j][1] = splat(b0[j]) + (Vec{} + x1 * wblock[j]);
          }
          for (std::int64_t ic = 1; ic < cin; ++ic) {
            const Vec x0 = load(xc + ic * stride);
            const Vec x1 = load(xc + ic * stride + kVec);
            for (std::int64_t j = 0; j < kBlockOut; ++j) {
              acc[j][0] += x0 * wblock[ic * kBlockOut + j];
              acc[j][1] += x1 * wblock[ic * kBlockOut + j];
            }
          }
          const std::int64_t n_pos =
              std::min(kBlockCols, plane - c * kBlockCols);
          for (std::int64_t j = 0; j < count; ++j)
            store(acc[j], n_pos,
                  y + (n * g.out_c + oc0 + j) * plane + c * kBlockCols);
        }
      }
    }
  }
}

/// Pointwise input gradient: a block of kBlockOut input channels of one
/// group times kBlockCols positions starts at +0.0 and adds each output
/// channel's product, ascending. The zero-gradient skip is a mask per
/// lane, shared by the block's channels: ANDed with it, a skipped product
/// adds +0.0, which leaves any sum but -0.0 as it is, and a sum that starts
/// at +0.0 is never -0.0. The AND also keeps Inf * 0 = NaN out.
[[gnu::noinline]] void input_grad_pointwise(const Geometry& g, const float* w,
                                            const float* gy, float* gx) {
  const std::int64_t cin = g.cin(), cout = g.cout(), plane = g.h * g.w;
  const std::int64_t chunks = (plane + kBlockCols - 1) / kBlockCols;
  const std::int64_t stride = chunks * kBlockCols;
  const std::int64_t blocks = (cin + kBlockOut - 1) / kBlockOut;
  const std::vector<Vec> wb = block_rows(w, g.groups, cin, cout, 1, cin);
  std::vector<float> buf;
  for (std::int64_t n = 0; n < g.batch; ++n) {
    const float* gn =
        padded_planes(gy + n * g.out_c * plane, g.out_c, plane, stride, buf);
    for (std::int64_t grp = 0; grp < g.groups; ++grp) {
      for (std::int64_t b = 0; b < blocks; ++b) {
        const std::int64_t ic0 = grp * cin + b * kBlockOut;
        const std::int64_t count = std::min(kBlockOut, cin - b * kBlockOut);
        const Vec* wblock = wb.data() + (grp * blocks + b) * cout * kBlockOut;
        for (std::int64_t c = 0; c < chunks; ++c) {
          const float* gc = gn + grp * cout * stride + c * kBlockCols;
          Vec acc[kBlockOut][2] = {};
          for (std::int64_t oc = 0; oc < cout; ++oc) {
            const Vec g0 = load(gc + oc * stride);
            const Vec g1 = load(gc + oc * stride + kVec);
            const Mask m0 = g0 != Vec{}, m1 = g1 != Vec{};
            for (std::int64_t j = 0; j < kBlockOut; ++j) {
              const Vec wv = wblock[oc * kBlockOut + j];
              acc[j][0] += (Vec)((Mask)(g0 * wv) & m0);
              acc[j][1] += (Vec)((Mask)(g1 * wv) & m1);
            }
          }
          const std::int64_t n_pos =
              std::min(kBlockCols, plane - c * kBlockCols);
          for (std::int64_t j = 0; j < count; ++j)
            store(acc[j], n_pos,
                  gx + (n * g.in_c + ic0 + j) * plane + c * kBlockCols);
        }
      }
    }
  }
}

/// Pointwise weight gradient: a block of kBlockOut output channels times
/// kBlockCols input channels of one group starts at the accumulated
/// gradient and adds every position of each image in order, reading the
/// image's channels-last copy. A zero output gradient skips its channel
/// with a branch, which leaves any sum as it is, -0.0 included.
[[gnu::noinline]] void weight_grad_pointwise(const Geometry& g, const float* x,
                                             const float* gy, float* gw) {
  const std::int64_t cin = g.cin(), cout = g.cout(), plane = g.h * g.w;
  const std::int64_t cinp = round_up(cin), row = g.groups * cinp;
  const std::int64_t blocks = (cout + kBlockOut - 1) / kBlockOut;
  // gwp[oc * cinp + ic]: the sums, zero in the padding.
  std::vector<float> gwp(static_cast<std::size_t>(g.out_c * cinp), 0.0f);
  for (std::int64_t oc = 0; oc < g.out_c; ++oc)
    std::copy(gw + oc * cin, gw + (oc + 1) * cin, gwp.data() + oc * cinp);
  std::vector<float> xcl(static_cast<std::size_t>(plane * row), 0.0f);
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t grp = 0; grp < g.groups; ++grp)
      to_channels_last(x + (n * g.groups + grp) * cin * plane, cin, plane, row,
                       xcl.data() + grp * cinp);
    for (std::int64_t grp = 0; grp < g.groups; ++grp) {
      for (std::int64_t b = 0; b < blocks; ++b) {
        const std::int64_t oc0 = grp * cout + b * kBlockOut;
        const std::int64_t count = std::min(kBlockOut, cout - b * kBlockOut);
        // The block's output channels; those past the group's last repeat
        // oc0, and their sums are dropped.
        std::int64_t ocs[kBlockOut] = {};
        const float* gp[kBlockOut] = {};
        for (std::int64_t j = 0; j < kBlockOut; ++j) {
          ocs[j] = oc0 + (j < count ? j : 0);
          gp[j] = gy + (n * g.out_c + ocs[j]) * plane;
        }
        for (std::int64_t ib = 0; ib < cinp; ib += kBlockCols) {
          Vec acc[kBlockOut][2] = {};
          for (std::int64_t j = 0; j < kBlockOut; ++j) {
            acc[j][0] = load(gwp.data() + ocs[j] * cinp + ib);
            acc[j][1] = load(gwp.data() + ocs[j] * cinp + ib + kVec);
          }
          const float* xb = xcl.data() + grp * cinp + ib;
          for (std::int64_t p = 0; p < plane; ++p) {
            const Vec x0 = load(xb + p * row), x1 = load(xb + p * row + kVec);
            for (std::int64_t j = 0; j < kBlockOut; ++j) {
              const float go = gp[j][p];
              if (go == 0.0f) continue;
              acc[j][0] += splat(go) * x0;
              acc[j][1] += splat(go) * x1;
            }
          }
          for (std::int64_t j = 0; j < count; ++j)
            store(acc[j], kBlockCols, gwp.data() + ocs[j] * cinp + ib);
        }
      }
    }
  }
  for (std::int64_t oc = 0; oc < g.out_c; ++oc)
    std::copy(gwp.data() + oc * cinp, gwp.data() + oc * cinp + cin,
              gw + oc * cin);
}

// ---- backward ----

/// gx[o * stride + offset] = masked_add(gx[...], g[o], wk) for o in cols:
/// one tap's terms from one output-gradient row.
void masked_tap(Range cols, std::int64_t stride, std::int64_t offset,
                const float* __restrict g, float wk, float* __restrict gx) {
  if (stride == 1) {
    for (std::int64_t o = cols.lo; o < cols.hi; ++o)
      gx[o + offset] = masked_add(gx[o + offset], g[o], wk);
  } else {
    for (std::int64_t o = cols.lo; o < cols.hi; ++o)
      gx[o * stride + offset] = masked_add(gx[o * stride + offset], g[o], wk);
  }
}

/// Input gradient for any geometry: the lanes are output columns, each
/// adding its term to a different input element. Every element sums over
/// (oc, ho, wo) in order: ho ascends, and for one input element a
/// descending kw means an ascending wo.
[[gnu::noinline]] void input_grad_rows(const Geometry& g, const float* w,
                                       const float* gy, float* gx) {
  const std::int64_t cin = g.cin(), cout = g.cout(), K = g.k;
  const std::vector<Range> cols = tap_ranges(g, g.wo, g.w);
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t ic = 0; ic < g.in_c; ++ic) {
      float* gxp = gx + (n * g.in_c + ic) * g.h * g.w;
      const std::int64_t oc0 = ic / cin * cout;
      for (std::int64_t oc = oc0; oc < oc0 + cout; ++oc) {
        const float* gp = gy + (n * g.out_c + oc) * g.ho * g.wo;
        const float* wp = w + (oc * cin + ic % cin) * K * K;
        for (std::int64_t ho = 0; ho < g.ho; ++ho) {
          const std::int64_t base = ho * g.stride - g.pad;
          const std::int64_t kh_lo = std::max<std::int64_t>(0, -base);
          const std::int64_t kh_hi = std::min(K, g.h - base);
          for (std::int64_t kh = kh_lo; kh < kh_hi; ++kh) {
            for (std::int64_t kw = K - 1; kw >= 0; --kw)
              masked_tap(cols[kw], g.stride, kw - g.pad, gp + ho * g.wo,
                         wp[kh * K + kw], gxp + (base + kh) * g.w);
          }
        }
      }
    }
  }
}

/// Dense or grouped weight gradient: every tap one sequential sum over
/// (n, ho, wo), held in registers across each image. The lanes are a block
/// of one group's input channels, read from the image's channels-last
/// copy; they share each output gradient, so a zero skips them all at once.
[[gnu::noinline]] void weight_grad_dense(const Geometry& g, const float* x,
                                         const float* gy, float* gw) {
  const std::int64_t cin = g.cin(), cout = g.cout(), K = g.k, KK = g.taps();
  const std::int64_t cinp = round_up(cin), row = g.groups * cinp;
  const std::vector<Range> rows = tap_ranges(g, g.ho, g.h);
  const std::vector<Range> cols = tap_ranges(g, g.wo, g.w);
  // gwt[(oc * KK + tap) * cinp + ic]: the sums, zero in the padding.
  std::vector<float> gwt(static_cast<std::size_t>(g.out_c * KK * cinp), 0.0f);
  for (std::int64_t oc = 0; oc < g.out_c; ++oc)
    to_channels_last(gw + oc * cin * KK, cin, KK, cinp,
                     gwt.data() + oc * KK * cinp);
  std::vector<float> xcl(static_cast<std::size_t>(g.h * g.w * row), 0.0f);
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t grp = 0; grp < g.groups; ++grp)
      to_channels_last(x + (n * g.groups + grp) * cin * g.h * g.w, cin,
                       g.h * g.w, row, xcl.data() + grp * cinp);
    for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
      const float* gp = gy + (n * g.out_c + oc) * g.ho * g.wo;
      for (std::int64_t ib = 0; ib < cinp; ib += kLanes) {
        const float* xb = xcl.data() + oc / cout * cinp + ib;
        for (std::int64_t kh = 0; kh < K; ++kh) {
          for (std::int64_t kw = 0; kw < K; ++kw) {
            float* sums = gwt.data() + (oc * KK + kh * K + kw) * cinp + ib;
            float acc[kLanes];
            for (std::int64_t j = 0; j < kLanes; ++j) acc[j] = sums[j];
            for (std::int64_t ho = rows[kh].lo; ho < rows[kh].hi; ++ho) {
              const float* gr = gp + ho * g.wo;
              const float* xr = xb + (ho * g.stride + kh - g.pad) * g.w * row;
              for (std::int64_t wo = cols[kw].lo; wo < cols[kw].hi; ++wo) {
                const float go = gr[wo];
                if (go == 0.0f) continue;
                const float* xv = xr + (wo * g.stride + kw - g.pad) * row;
                for (std::int64_t j = 0; j < kLanes; ++j) acc[j] += go * xv[j];
              }
            }
            for (std::int64_t j = 0; j < kLanes; ++j) sums[j] = acc[j];
          }
        }
      }
    }
  }
  for (std::int64_t oc = 0; oc < g.out_c; ++oc)
    to_planes(gwt.data() + oc * KK * cinp, cin, KK, cinp, gw + oc * cin * KK);
}

/// Depthwise: the lanes are channels, read from one image's channels-last
/// copies at a time, and each lane skips its own zero output gradients with
/// a masked add. Every weight tap is one sequential sum over (n, ho, wo),
/// and every input gradient element one sum over the (ho, wo) that read
/// it, ascending.
[[gnu::noinline]] void backward_depthwise(const Geometry& g, const float* x,
                                          const float* w, const float* gy,
                                          float* gx, float* gw) {
  const std::int64_t C = g.in_c, Cp = round_up(C), K = g.k, KK = g.taps();
  const std::int64_t in_plane = g.h * g.w, out_plane = g.ho * g.wo;
  const std::vector<Range> rows = tap_ranges(g, g.ho, g.h);
  const std::vector<Range> cols = tap_ranges(g, g.wo, g.w);
  std::vector<float> wt(static_cast<std::size_t>(KK * Cp), 0.0f);
  to_channels_last(w, C, KK, Cp, wt.data());
  std::vector<float> gwt(wt.size(), 0.0f);
  to_channels_last(gw, C, KK, Cp, gwt.data());
  std::vector<float> xcl(static_cast<std::size_t>(in_plane * Cp), 0.0f);
  std::vector<float> gxcl(xcl.size());
  std::vector<float> gcl(static_cast<std::size_t>(out_plane * Cp), 0.0f);
  for (std::int64_t n = 0; n < g.batch; ++n) {
    to_channels_last(x + n * C * in_plane, C, in_plane, Cp, xcl.data());
    to_channels_last(gy + n * C * out_plane, C, out_plane, Cp, gcl.data());
    for (std::int64_t cb = 0; cb < Cp; cb += kLanes) {
      for (std::int64_t kh = 0; kh < K; ++kh) {
        for (std::int64_t kw = 0; kw < K; ++kw) {
          float* sums = gwt.data() + (kh * K + kw) * Cp + cb;
          float acc[kLanes];
          for (std::int64_t j = 0; j < kLanes; ++j) acc[j] = sums[j];
          for (std::int64_t ho = rows[kh].lo; ho < rows[kh].hi; ++ho) {
            const float* gr = gcl.data() + ho * g.wo * Cp + cb;
            const float* xr =
                xcl.data() + (ho * g.stride + kh - g.pad) * g.w * Cp + cb;
            for (std::int64_t wo = cols[kw].lo; wo < cols[kw].hi; ++wo) {
              const float* gv = gr + wo * Cp;
              const float* xv = xr + (wo * g.stride + kw - g.pad) * Cp;
              for (std::int64_t j = 0; j < kLanes; ++j)
                acc[j] = masked_add(acc[j], gv[j], xv[j]);
            }
          }
          for (std::int64_t j = 0; j < kLanes; ++j) sums[j] = acc[j];
        }
      }
    }
    for (std::int64_t h = 0; h < g.h; ++h) {
      const Range out_rows = reaching_outputs(g, h, g.ho);
      for (std::int64_t ww = 0; ww < g.w; ++ww) {
        const Range out_cols = reaching_outputs(g, ww, g.wo);
        float* sums = gxcl.data() + (h * g.w + ww) * Cp;
        for (std::int64_t cb = 0; cb < Cp; cb += kLanes) {
          float acc[kLanes] = {};
          for (std::int64_t ho = out_rows.lo; ho < out_rows.hi; ++ho) {
            const std::int64_t kh = h + g.pad - ho * g.stride;
            for (std::int64_t wo = out_cols.lo; wo < out_cols.hi; ++wo) {
              const std::int64_t kw = ww + g.pad - wo * g.stride;
              const float* gv = gcl.data() + (ho * g.wo + wo) * Cp + cb;
              const float* wv = wt.data() + (kh * K + kw) * Cp + cb;
              for (std::int64_t j = 0; j < kLanes; ++j)
                acc[j] = masked_add(acc[j], gv[j], wv[j]);
            }
          }
          for (std::int64_t j = 0; j < kLanes; ++j) sums[cb + j] = acc[j];
        }
      }
    }
    to_planes(gxcl.data(), C, in_plane, Cp, gx + n * C * in_plane);
  }
  to_planes(gwt.data(), C, KK, Cp, gw);
}

/// gw[i] += go * x[i] and gx[i] += go * w[i] for i < n: one output
/// gradient's term in a tap's weight gradients and in one input position's
/// gradients, across input channels.
void accumulate_pair(std::int64_t n, float go, const float* __restrict x,
                     float* __restrict gw, const float* __restrict w,
                     float* __restrict gx) {
  for (std::int64_t i = 0; i < n; ++i) {
    gw[i] += go * x[i];
    gx[i] += go * w[i];
  }
}

/// Dense or grouped, for mostly zero output gradients or narrow rows: the
/// direct loop order with the input channels innermost, so a zero output
/// gradient costs one compare. Every gradient element still sees its terms
/// in the same order; the sums live in channels-last copies of gw and of
/// one image's gx.
[[gnu::noinline]] void backward_sparse(const Geometry& g, const float* x,
                                       const float* w, const float* gy,
                                       float* gx, float* gw) {
  const std::int64_t cin = g.cin(), cout = g.cout(), K = g.k, KK = g.taps();
  const std::int64_t plane = g.h * g.w;
  std::vector<float> wt(static_cast<std::size_t>(g.out_c * KK * cin));
  std::vector<float> gwt(wt.size());
  for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
    to_channels_last(w + oc * cin * KK, cin, KK, cin,
                     wt.data() + oc * KK * cin);
    to_channels_last(gw + oc * cin * KK, cin, KK, cin,
                     gwt.data() + oc * KK * cin);
  }
  std::vector<float> xcl(static_cast<std::size_t>(plane * g.in_c));
  std::vector<float> gxcl(xcl.size());
  for (std::int64_t n = 0; n < g.batch; ++n) {
    to_channels_last(x + n * g.in_c * plane, g.in_c, plane, g.in_c,
                     xcl.data());
    std::fill(gxcl.begin(), gxcl.end(), 0.0f);
    for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
      const std::int64_t c0 = oc / cout * cin;
      const float* gp = gy + (n * g.out_c + oc) * g.ho * g.wo;
      for (std::int64_t ho = 0; ho < g.ho; ++ho) {
        const std::int64_t hb = ho * g.stride - g.pad;
        for (std::int64_t wo = 0; wo < g.wo; ++wo) {
          const float go = gp[ho * g.wo + wo];
          if (go == 0.0f) continue;
          const std::int64_t wb = wo * g.stride - g.pad;
          for (std::int64_t kh = std::max<std::int64_t>(0, -hb);
               kh < std::min(K, g.h - hb); ++kh) {
            for (std::int64_t kw = std::max<std::int64_t>(0, -wb);
                 kw < std::min(K, g.w - wb); ++kw) {
              const std::int64_t at = ((hb + kh) * g.w + wb + kw) * g.in_c + c0;
              const std::int64_t tap = (oc * KK + kh * K + kw) * cin;
              accumulate_pair(cin, go, xcl.data() + at, gwt.data() + tap,
                              wt.data() + tap, gxcl.data() + at);
            }
          }
        }
      }
    }
    to_planes(gxcl.data(), g.in_c, plane, g.in_c, gx + n * g.in_c * plane);
  }
  for (std::int64_t oc = 0; oc < g.out_c; ++oc)
    to_planes(gwt.data() + oc * KK * cin, cin, KK, cin, gw + oc * cin * KK);
}

/// Output height or width of a convolution over an input one.
std::int64_t output_extent(std::int64_t input, int kernel, int stride,
                           int padding) {
  return (input + 2 * padding - kernel) / stride + 1;
}

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, int kernel,
               int stride, int padding, std::int64_t groups, bool bias,
               Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      groups_(groups),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      weight_({out_channels, in_channels / groups, kernel, kernel}),
      bias_({out_channels}),
      weight_grad_({out_channels, in_channels / groups, kernel, kernel}),
      bias_grad_({out_channels}) {
  if (in_channels % groups != 0 || out_channels % groups != 0)
    throw InvalidArgument("Conv2d: channels must divide groups");
  if (kernel <= 0 || stride <= 0 || padding < 0)
    throw InvalidArgument("Conv2d: bad kernel/stride/padding");
  const std::int64_t fan_in = (in_channels / groups) * kernel * kernel;
  kaiming_uniform(weight_, fan_in, rng);
  if (has_bias_) kaiming_uniform(bias_, fan_in, rng);
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  if (input.rank() != 4 || input.dim(1) != in_channels_)
    throw InvalidArgument("Conv2d: expected NCHW with C=" +
                          std::to_string(in_channels_) + ", got " +
                          input.shape_string());
  const std::int64_t N = input.dim(0), H = input.dim(2), W = input.dim(3);
  if (H + 2 * padding_ < kernel_ || W + 2 * padding_ < kernel_)
    throw InvalidArgument("Conv2d: padded input smaller than the window");
  // Assigned, not rebuilt, in training: the copy reuses the cache's
  // storage.
  if (training)
    cached_input_ = input;
  else
    cached_input_ = Tensor();
  const std::int64_t Ho = output_extent(H, kernel_, stride_, padding_);
  const std::int64_t Wo = output_extent(W, kernel_, stride_, padding_);
  Tensor out({N, out_channels_, Ho, Wo});
  const Geometry g{N,  in_channels_, H,       W,        out_channels_, Ho,
                   Wo, kernel_,      stride_, padding_, groups_};
  const float* bias = has_bias_ ? bias_.data() : nullptr;
  const float* w = weight_.data();
  if (g.pointwise())
    forward_pointwise(g, input.data(), w, bias, out.data());
  else if (std::all_of(w, w + weight_.numel(),
                       [](float v) { return std::isfinite(v); }))
    forward_blocked<false>(g, input.data(), w, bias, out.data());
  else
    forward_blocked<true>(g, input.data(), w, bias, out.data());
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  if (input.rank() != 4)
    throw InvalidArgument("Conv2d::backward: no training-mode forward");
  const std::int64_t N = input.dim(0), H = input.dim(2), W = input.dim(3);
  const std::int64_t Ho = output_extent(H, kernel_, stride_, padding_);
  const std::int64_t Wo = output_extent(W, kernel_, stride_, padding_);
  if (grad_output.shape() != Shape{N, out_channels_, Ho, Wo})
    throw InvalidArgument("Conv2d::backward: gradient " +
                          grad_output.shape_string() +
                          " is not the forward output's shape");
  Tensor grad_input(input.shape());
  const Geometry g{N,  in_channels_, H,       W,        out_channels_, Ho,
                   Wo, kernel_,      stride_, padding_, groups_};
  const float* gy = grad_output.data();

  if (has_bias_) {
    float* gb = bias_grad_.data();
    for (std::int64_t n = 0; n < N; ++n) {
      for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
        const float* gp = gy + (n * out_channels_ + oc) * Ho * Wo;
        float acc = 0.0f;
        for (std::int64_t i = 0; i < Ho * Wo; ++i) acc += gp[i];
        gb[oc] += acc;
      }
    }
  }

  const float* x = input.data();
  const float* w = weight_.data();
  float* gx = grad_input.data();
  float* gw = weight_grad_.data();
  if (g.depthwise()) {
    backward_depthwise(g, x, w, gy, gx, gw);
    return grad_input;
  }
  if (g.pointwise()) {
    weight_grad_pointwise(g, x, gy, gw);
    input_grad_pointwise(g, w, gy, gx);
    return grad_input;
  }
  // Both schedules add the same terms in the same order; they differ in
  // whether a zero output gradient is visited at all. The dense one pays
  // off on rows at least kMinDenseRow wide when at most half the output
  // gradients are zero.
  const auto numel = static_cast<std::ptrdiff_t>(grad_output.numel());
  if (g.wo >= kMinDenseRow && 2 * std::count(gy, gy + numel, 0.0f) <= numel) {
    weight_grad_dense(g, x, gy, gw);
    input_grad_rows(g, w, gy, gx);
  } else {
    backward_sparse(g, x, w, gy, gx, gw);
  }
  return grad_input;
}

void Conv2d::collect(const std::string& prefix, std::vector<ParamRef>& params,
                     std::vector<BufferRef>& /*buffers*/) {
  params.push_back({prefix + "weight", &weight_, &weight_grad_});
  if (has_bias_) params.push_back({prefix + "bias", &bias_, &bias_grad_});
}

}  // namespace fedsz::nn
