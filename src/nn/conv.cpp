#include "nn/conv.hpp"

#include <algorithm>
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
// These kernels stay out of line ([[gnu::noinline]]): inlined into
// Conv2d::backward, GCC 12 no longer vectorizes their lane loops.
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
  /// A pointwise convolution maps each plane position to itself, so its
  /// planes can be treated as single rows.
  Geometry flattened() const {
    if (!pointwise()) return *this;
    Geometry flat = *this;
    flat.w = flat.wo = h * w;
    flat.h = flat.ho = 1;
    return flat;
  }
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

// ---- forward ----

/// y[i] += 0.0f + x[i] * wk: one input channel's partial sum of a
/// pointwise convolution, added to the output plane.
void add_partial(std::int64_t n, const float* __restrict x, float wk,
                 float* __restrict y) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += 0.0f + x[i] * wk;
}

/// Pointwise: the lanes are whole planes. Each output plane is its bias
/// plus one scaled input plane per input channel.
void forward_pointwise(const Geometry& g, const float* x, const float* w,
                       const float* bias, float* y) {
  const std::int64_t plane = g.h * g.w, cin = g.cin(), cout = g.cout();
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
      float* yp = y + (n * g.out_c + oc) * plane;
      std::fill(yp, yp + plane, bias ? bias[oc] : 0.0f);
      const float* xg = x + (n * g.in_c + oc / cout * cin) * plane;
      for (std::int64_t ic = 0; ic < cin; ++ic)
        add_partial(plane, xg + ic * plane, w[oc * cin + ic], yp);
    }
  }
}

/// part[o] += x[o * stride + offset] * wk for o in cols: one tap over one
/// output row.
void add_tap(Range cols, std::int64_t stride, std::int64_t offset,
             const float* __restrict x, float wk, float* __restrict part) {
  if (stride == 1) {
    for (std::int64_t o = cols.lo; o < cols.hi; ++o)
      part[o] += x[o + offset] * wk;
  } else {
    for (std::int64_t o = cols.lo; o < cols.hi; ++o)
      part[o] += x[o * stride + offset] * wk;
  }
}

/// Any geometry: the lanes are output columns. Each (output, input
/// channel) pair's partial sums fill one plane tap by tap, over the rows
/// and columns where that tap is valid, before joining the output.
void forward_rows(const Geometry& g, const float* x, const float* w,
                  const float* bias, float* y) {
  const std::int64_t cin = g.cin(), cout = g.cout(), K = g.k;
  const std::int64_t plane = g.ho * g.wo;
  const std::vector<Range> rows = tap_ranges(g, g.ho, g.h);
  const std::vector<Range> cols = tap_ranges(g, g.wo, g.w);
  std::vector<float> part(static_cast<std::size_t>(plane));
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
      float* yp = y + (n * g.out_c + oc) * plane;
      std::fill(yp, yp + plane, bias ? bias[oc] : 0.0f);
      const float* xg = x + (n * g.in_c + oc / cout * cin) * g.h * g.w;
      for (std::int64_t ic = 0; ic < cin; ++ic) {
        const float* xp = xg + ic * g.h * g.w;
        const float* wp = w + (oc * cin + ic) * K * K;
        std::fill(part.begin(), part.end(), 0.0f);
        for (std::int64_t kh = 0; kh < K; ++kh) {
          for (std::int64_t kw = 0; kw < K; ++kw) {
            for (std::int64_t ho = rows[kh].lo; ho < rows[kh].hi; ++ho)
              add_tap(cols[kw], g.stride, kw - g.pad,
                      xp + (ho * g.stride + kh - g.pad) * g.w, wp[kh * K + kw],
                      part.data() + ho * g.wo);
          }
        }
        for (std::int64_t i = 0; i < plane; ++i) yp[i] += part[i];
      }
    }
  }
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
void input_grad_rows(const Geometry& g, const float* w, const float* gy,
                     float* gx) {
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
void backward_sparse(const Geometry& g, const float* x, const float* w,
                     const float* gy, float* gx, float* gw) {
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

Tensor Conv2d::forward(const Tensor& input, bool /*training*/) {
  if (input.rank() != 4 || input.dim(1) != in_channels_)
    throw InvalidArgument("Conv2d: expected NCHW with C=" +
                          std::to_string(in_channels_) + ", got " +
                          input.shape_string());
  cached_input_ = input;
  const std::int64_t N = input.dim(0), H = input.dim(2), W = input.dim(3);
  const std::int64_t Ho = (H + 2 * padding_ - kernel_) / stride_ + 1;
  const std::int64_t Wo = (W + 2 * padding_ - kernel_) / stride_ + 1;
  if (Ho <= 0 || Wo <= 0) throw InvalidArgument("Conv2d: input too small");
  Tensor out({N, out_channels_, Ho, Wo});
  const Geometry g{N,  in_channels_, H,       W,        out_channels_, Ho,
                   Wo, kernel_,      stride_, padding_, groups_};
  const float* bias = has_bias_ ? bias_.data() : nullptr;
  if (g.pointwise())
    forward_pointwise(g, input.data(), weight_.data(), bias, out.data());
  else
    forward_rows(g, input.data(), weight_.data(), bias, out.data());
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const std::int64_t N = input.dim(0), H = input.dim(2), W = input.dim(3);
  const std::int64_t Ho = grad_output.dim(2), Wo = grad_output.dim(3);
  if (grad_output.rank() != 4 || grad_output.dim(0) != N ||
      grad_output.dim(1) != out_channels_)
    throw InvalidArgument("Conv2d::backward: bad grad shape");
  Tensor grad_input(input.shape());
  const Geometry full{N,  in_channels_, H,       W,        out_channels_, Ho,
                      Wo, kernel_,      stride_, padding_, groups_};
  const Geometry g = full.flattened();
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
