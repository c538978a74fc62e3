package tensor

import (
	"fmt"
	"math"

	"fedmigr/internal/sched"
)

// ConvParams describes a 2-D convolution or pooling geometry.
type ConvParams struct {
	KernelH, KernelW int
	StrideH, StrideW int
	PadH, PadW       int
}

// OutSize returns the output spatial size for an input of h×w.
func (p ConvParams) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*p.PadH-p.KernelH)/p.StrideH + 1
	ow = (w+2*p.PadW-p.KernelW)/p.StrideW + 1
	return oh, ow
}

func (p ConvParams) validate() {
	if p.KernelH <= 0 || p.KernelW <= 0 || p.StrideH <= 0 || p.StrideW <= 0 || p.PadH < 0 || p.PadW < 0 {
		panic(fmt.Sprintf("tensor: invalid conv params %+v", p))
	}
}

// PanelMap is the index map of one convolution geometry (C, H, W and the
// ConvParams) over one sample's im2col panel, whose cells run position-major
// and (c, ky, kx)-minor: each cell reads one input offset or is padding.
// Being per sample, one map serves every batch size; it never changes.
type PanelMap struct {
	c, h, w   int
	p         ConvParams
	pos, colW int         // panel rows and columns per sample: OH·OW and C·KH·KW
	valid     []panelCell // cells that read the input, ascending
	pad       []int32     // padding cells' panel offsets
}

// panelCell is a cell's offset in the panel and the one it reads in C·H·W.
type panelCell struct{ to, from int32 }

// NewPanelMap builds the panel map for c×h×w inputs under p.
func NewPanelMap(c, h, w int, p ConvParams) *PanelMap {
	p.validate()
	oh, ow := p.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col output size %dx%d for input %dx%dx%d params %+v", oh, ow, c, h, w, p))
	}
	m := &PanelMap{c: c, h: h, w: w, p: p, pos: oh * ow, colW: c * p.KernelH * p.KernelW}
	if m.pos*m.colW > math.MaxInt32 || c*h*w > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: Im2Col panel of %d cells per sample overflows its map", m.pos*m.colW))
	}
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ci := 0; ci < c; ci++ {
				for ky := 0; ky < p.KernelH; ky++ {
					iy := oy*p.StrideH - p.PadH + ky
					for kx := 0; kx < p.KernelW; kx++ {
						ix, cell := ox*p.StrideW-p.PadW+kx, int32(len(m.valid)+len(m.pad))
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							m.pad = append(m.pad, cell)
						} else {
							m.valid = append(m.valid, panelCell{cell, int32((ci*h+iy)*w + ix)})
						}
					}
				}
			}
		}
	}
	return m
}

// Matches reports whether m is the map for c×h×w inputs under p. A nil map
// matches nothing.
func (m *PanelMap) Matches(c, h, w int, p ConvParams) bool {
	return m != nil && m.c == c && m.h == h && m.w == w && m.p == p
}

// samples checks that t is an NCHW tensor of m's geometry and returns N.
func (m *PanelMap) samples(t *Tensor, what string) int {
	if t.Rank() != 4 || !m.Matches(t.shape[1], t.shape[2], t.shape[3], m.p) {
		panic(fmt.Sprintf("tensor: %s %v does not fit a panel map for %dx%dx%d", what, t.shape, m.c, m.h, m.w))
	}
	return t.shape[0]
}

// gather writes the panels of samples [lo, hi).
func (m *PanelMap) gather(cols, x []float64, lo, hi int) {
	cells, chw := m.pos*m.colW, m.c*m.h*m.w
	for ni := lo; ni < hi; ni++ {
		gatherSample(cols[ni*cells:(ni+1)*cells], x[ni*chw:(ni+1)*chw], m.valid, m.pad)
	}
}

// gatherSample fills one panel. It and scatterSample stay out of line:
// inlined, their index spills to the stack and the copy runs ~1.5× slower.
//
//go:noinline
func gatherSample(dst, src []float64, valid []panelCell, pad []int32) {
	for _, v := range valid {
		dst[v.to] = src[v.from]
	}
	for _, t := range pad {
		dst[t] = 0
	}
}

// scatter writes the input gradients of samples [lo, hi).
func (m *PanelMap) scatter(dx, cols []float64, lo, hi int) {
	cells, chw := m.pos*m.colW, m.c*m.h*m.w
	for ni := lo; ni < hi; ni++ {
		scatterSample(dx[ni*chw:(ni+1)*chw], cols[ni*cells:(ni+1)*cells], m.valid)
	}
}

// scatterSample clears one sample's planes, then adds each valid cell.
//
//go:noinline
func scatterSample(dst, src []float64, valid []panelCell) {
	clear(dst)
	for _, v := range valid {
		dst[v.from] += src[v.to]
	}
}

// Im2Col unrolls an input of shape (N, C, H, W) into a matrix of shape
// (N*OH*OW, C*KH*KW) so convolution reduces to a matrix multiply. The
// matrix is arena-backed; callers done with it recycle it with PutScratch.
func Im2Col(x *Tensor, p ConvParams) *Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col requires NCHW input, got %v", x.shape))
	}
	m := NewPanelMap(x.shape[1], x.shape[2], x.shape[3], p)
	return Im2ColInto(GetScratch(x.shape[0]*m.pos, m.colW), x, m)
}

// Im2ColInto unrolls x through its panel map m into cols (reshaped in
// place, see Ensure; nil allocates) and returns it. Every cell is written,
// padding as explicit zeros, so cols may hold anything on entry.
func Im2ColInto(cols, x *Tensor, m *PanelMap) *Tensor {
	n := m.samples(x, "Im2Col input")
	cols = Ensure(cols, n*m.pos, m.colW)
	// Each sample's panel is written by exactly one worker.
	if work := n * m.pos * m.colW; serial(work) {
		m.gather(cols.data, x.data, 0, n)
	} else {
		parFor(n, work, func(lo, hi int) { m.gather(cols.data, x.data, lo, hi) })
	}
	return cols
}

// Col2Im is the adjoint of Im2Col: it scatters a (N*OH*OW, C*KH*KW) matrix
// of column gradients back onto an (N, C, H, W) input-gradient tensor,
// accumulating where patches overlap.
func Col2Im(cols *Tensor, n, c, h, w int, p ConvParams) *Tensor {
	return Col2ImInto(New(n, c, h, w), cols, NewPanelMap(c, h, w, p))
}

// Col2ImInto scatters cols through the panel map m onto dx, an NCHW tensor
// of m's geometry; dx is overwritten (it may hold anything on entry).
func Col2ImInto(dx, cols *Tensor, m *PanelMap) *Tensor {
	n := m.samples(dx, "Col2Im destination")
	if cols.Rank() != 2 || cols.shape[0] != n*m.pos || cols.shape[1] != m.colW {
		panic(fmt.Sprintf("tensor: Col2Im shape mismatch %v for output %v", cols.shape, dx.shape))
	}
	// Patches overlap only within a sample, so the split is over samples;
	// each input cell sums its terms in ascending (oy, ox) order from +0.
	if work := n * m.pos * m.colW; serial(work) {
		m.scatter(dx.data, cols.data, 0, n)
	} else {
		parFor(n, work, func(lo, hi int) { m.scatter(dx.data, cols.data, lo, hi) })
	}
	return dx
}

// Conv2D computes a 2-D convolution of x (N, C, H, W) with kernels
// k (F, C, KH, KW) and per-filter bias b (F), returning (N, F, OH, OW).
// Pass a nil bias to skip the bias addition.
func Conv2D(x, k, b *Tensor, p ConvParams) *Tensor {
	if k.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D kernel must be FCHW, got %v", k.shape))
	}
	f, c := k.shape[0], k.shape[1]
	if x.shape[1] != c || k.shape[2] != p.KernelH || k.shape[3] != p.KernelW {
		panic(fmt.Sprintf("tensor: Conv2D input %v incompatible with kernel %v params %+v", x.shape, k.shape, p))
	}
	n, h, w := x.shape[0], x.shape[2], x.shape[3]
	oh, ow := p.OutSize(h, w)
	cols := Im2Col(x, p)                        // (N*OH*OW, C*KH*KW)
	kmat := k.Reshape(f, c*p.KernelH*p.KernelW) // (F, C*KH*KW)
	out := MatMulTransB(cols, kmat)             // (N*OH*OW, F)
	PutScratch(cols)
	res := New(n, f, oh, ow)
	parFor(n, n*f*oh*ow, func(nlo, nhi int) {
		for ni := nlo; ni < nhi; ni++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					row := ((ni*oh+oy)*ow + ox) * f
					for fi := 0; fi < f; fi++ {
						v := out.data[row+fi]
						if b != nil {
							v += b.data[fi]
						}
						res.data[((ni*f+fi)*oh+oy)*ow+ox] = v
					}
				}
			}
		}
	})
	return res
}

// MaxPool2D applies max pooling to x (N, C, H, W) and returns the pooled
// output (N, C, OH, OW) together with the flat argmax index of each pooled
// cell (into x's data), which the backward pass uses to route gradients.
// The argmax buffer comes from the shared sched arena; callers that are
// done with it should recycle it with sched.PutIntBuf.
func MaxPool2D(x *Tensor, p ConvParams) (*Tensor, []int) {
	return MaxPool2DInto(nil, sched.GetIntBuf(poolOutSize(x, p)), x, p)
}

// poolOutSize validates a pooling input and returns the output's size.
func poolOutSize(x *Tensor, p ConvParams) int {
	p.validate()
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: MaxPool2D requires NCHW input, got %v", x.shape))
	}
	oh, ow := p.OutSize(x.shape[2], x.shape[3])
	return x.shape[0] * x.shape[1] * oh * ow
}

// MaxPool2DInto pools x into out and records each cell's argmax in arg.
// Both are reused when their capacity suffices (out as by Ensure; nil
// allocates), overwritten in every slot, and returned.
func MaxPool2DInto(out *Tensor, arg []int, x *Tensor, p ConvParams) (*Tensor, []int) {
	size := poolOutSize(x, p)
	if cap(arg) < size {
		arg = make([]int, size)
	}
	arg = arg[:size]
	n, c := x.shape[0], x.shape[1]
	oh, ow := p.OutSize(x.shape[2], x.shape[3])
	out = Ensure(out, n, c, oh, ow)
	// Pooling planes are independent: worker-private (ni, ci) blocks.
	planes := n * c
	if work := planes * oh * ow * p.KernelH * p.KernelW; serial(work) {
		maxPoolPlanes(out.data, arg, x, p, 0, planes)
	} else {
		parFor(planes, work, func(lo, hi int) { maxPoolPlanes(out.data, arg, x, p, lo, hi) })
	}
	return out, arg
}

// maxPoolPlanes pools planes [plo, phi). Each window starts from its first
// in-bounds cell and, in row-major order, takes a cell only where
// v > best: ties keep the earlier cell, a NaN is never taken and, once
// best, never replaced. The take is a compare-produced mask rather than a
// branch, because the comparison's outcome is data and predicts badly. A
// window lying wholly in the padding yields 0 and argmax -1.
func maxPoolPlanes(out []float64, arg []int, x *Tensor, p ConvParams, plo, phi int) {
	h, w := x.shape[2], x.shape[3]
	oh, ow := p.OutSize(h, w)
	for pl := plo; pl < phi; pl++ {
		base := pl * h * w
		for oy := 0; oy < oh; oy++ {
			// The window's rows and columns clipped to the input.
			y0, y1 := max(oy*p.StrideH-p.PadH, 0), min(oy*p.StrideH-p.PadH+p.KernelH, h)
			for ox := 0; ox < ow; ox++ {
				x0, x1 := max(ox*p.StrideW-p.PadW, 0), min(ox*p.StrideW-p.PadW+p.KernelW, w)
				oi := (pl*oh+oy)*ow + ox
				if y0 >= y1 || x0 >= x1 {
					out[oi], arg[oi] = 0, -1
					continue
				}
				bi := base + y0*w + x0
				best := math.Float64bits(x.data[bi])
				for iy := y0; iy < y1; iy++ {
					off := base + iy*w
					for i := off + x0; i < off+x1; i++ {
						v := x.data[i]
						take := -b2u(v > math.Float64frombits(best))
						best ^= (best ^ math.Float64bits(v)) & take
						bi ^= (bi ^ i) & int(take)
					}
				}
				out[oi] = math.Float64frombits(best)
				arg[oi] = bi
			}
		}
	}
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a SETcc, so
// -b2u(cond) is an all-ones or all-zeros select mask without a branch.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// MaxPool2DBackward scatters the pooled-output gradient g back to an
// input-shaped gradient using the argmax indices from MaxPool2D.
func MaxPool2DBackward(g *Tensor, arg []int, inShape []int) *Tensor {
	return MaxPool2DBackwardInto(New(inShape...), g, arg)
}

// MaxPool2DBackwardInto scatters g onto dx, whose shape names the pooling
// input; dx is overwritten (it may hold anything on entry).
func MaxPool2DBackwardInto(dx, g *Tensor, arg []int) *Tensor {
	// Each (sample, channel) plane's argmax indices point inside that
	// plane, so a plane split keeps scatter-accumulation worker-private
	// and in serial element order.
	planes := 0
	if dx.Rank() >= 2 {
		planes = dx.shape[0] * dx.shape[1]
	}
	if planes == 0 || len(arg)%planes != 0 || serial(len(arg)*2) {
		maxPoolScatter(dx.data, g.data, arg, 0, len(dx.data), 0, len(arg))
		return dx
	}
	ipl, opl := len(dx.data)/planes, len(arg)/planes
	parFor(planes, len(arg)*2, func(lo, hi int) {
		maxPoolScatter(dx.data, g.data, arg, lo*ipl, hi*ipl, lo*opl, hi*opl)
	})
	return dx
}

// maxPoolScatter zeroes dx[xlo:xhi] and routes g[lo:hi] into it.
func maxPoolScatter(dx, g []float64, arg []int, xlo, xhi, lo, hi int) {
	clear(dx[xlo:xhi])
	for i := lo; i < hi; i++ {
		if a := arg[i]; a >= 0 {
			dx[a] += g[i]
		}
	}
}
