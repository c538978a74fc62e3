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

// im2colShape validates an Im2Col input and returns the panel's shape.
func im2colShape(x *Tensor, p ConvParams) (rows, colW int) {
	p.validate()
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col requires NCHW input, got %v", x.shape))
	}
	oh, ow := p.OutSize(x.shape[2], x.shape[3])
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col output size %dx%d for input %v params %+v", oh, ow, x.shape, p))
	}
	return x.shape[0] * oh * ow, x.shape[1] * p.KernelH * p.KernelW
}

// Im2Col unrolls an input of shape (N, C, H, W) into a matrix of shape
// (N*OH*OW, C*KH*KW) so convolution reduces to a matrix multiply. The
// matrix is arena-backed; callers done with it recycle it with PutScratch.
func Im2Col(x *Tensor, p ConvParams) *Tensor {
	return Im2ColInto(GetScratch(im2colShape(x, p)), x, p)
}

// Im2ColInto unrolls x into cols (reshaped in place, see Ensure; nil
// allocates) and returns it. Every cell is written, padding as explicit
// zeros, so cols may hold anything on entry.
func Im2ColInto(cols, x *Tensor, p ConvParams) *Tensor {
	rows, colW := im2colShape(x, p)
	cols = Ensure(cols, rows, colW)
	// Each output row (one receptive field) is written by exactly one worker.
	if serial(rows * colW) {
		im2colRows(cols.data, x, p, 0, rows)
	} else {
		parFor(rows, rows*colW, func(lo, hi int) { im2colRows(cols.data, x, p, lo, hi) })
	}
	return cols
}

func im2colRows(cols []float64, x *Tensor, p ConvParams, rlo, rhi int) {
	c, h, w := x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutSize(h, w)
	kw := p.KernelW
	colW := c * p.KernelH * kw
	ni, oy, ox := rlo/(oh*ow), (rlo/ow)%oh, rlo%ow
	for r := rlo; r < rhi; r++ {
		ix0 := ox*p.StrideW - p.PadW
		interior := ix0 >= 0 && ix0+kw <= w
		row := cols[r*colW : (r+1)*colW]
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for ky := 0; ky < p.KernelH; ky++ {
				iy := oy*p.StrideH - p.PadH + ky
				dst := row[:kw]
				row = row[kw:]
				switch {
				case iy < 0 || iy >= h:
					clear(dst)
				case interior:
					// A plain loop: kernel rows are a few floats, below
					// what a memmove call pays for itself.
					src := x.data[base+iy*w+ix0:][:kw]
					for kx := range dst {
						dst[kx] = src[kx]
					}
				default:
					for kx := range dst {
						if ix := ix0 + kx; ix >= 0 && ix < w {
							dst[kx] = x.data[base+iy*w+ix]
						} else {
							dst[kx] = 0
						}
					}
				}
			}
		}
		if ox++; ox == ow {
			if ox, oy = 0, oy+1; oy == oh {
				oy, ni = 0, ni+1
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatters a (N*OH*OW, C*KH*KW) matrix
// of column gradients back onto an (N, C, H, W) input-gradient tensor,
// accumulating where patches overlap.
func Col2Im(cols *Tensor, n, c, h, w int, p ConvParams) *Tensor {
	return Col2ImInto(New(n, c, h, w), cols, p)
}

// Col2ImInto scatters cols onto dx, whose (N, C, H, W) shape names the
// input geometry; dx is overwritten (it may hold anything on entry).
func Col2ImInto(dx, cols *Tensor, p ConvParams) *Tensor {
	p.validate()
	if dx.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Col2Im requires an NCHW destination, got %v", dx.shape))
	}
	n, c, h, w := dx.shape[0], dx.shape[1], dx.shape[2], dx.shape[3]
	oh, ow := p.OutSize(h, w)
	colW := c * p.KernelH * p.KernelW
	if cols.Rank() != 2 || cols.shape[0] != n*oh*ow || cols.shape[1] != colW {
		panic(fmt.Sprintf("tensor: Col2Im shape mismatch %v for output %dx%dx%dx%d", cols.shape, n, c, h, w))
	}
	// Overlapping patches accumulate, so the split is over (sample,
	// channel) planes — all writes for plane (ni, ci) land inside its own
	// h·w block, and within a plane the (oy, ox, ky, kx) visit order (and
	// hence each element's accumulation order) matches the serial scatter.
	planes := n * c
	if work := planes * oh * ow * p.KernelH * p.KernelW; serial(work) {
		col2imPlanes(dx, cols.data, p, 0, planes)
	} else {
		parFor(planes, work, func(lo, hi int) { col2imPlanes(dx, cols.data, p, lo, hi) })
	}
	return dx
}

func col2imPlanes(dx *Tensor, cols []float64, p ConvParams, plo, phi int) {
	c, h, w := dx.shape[1], dx.shape[2], dx.shape[3]
	oh, ow := p.OutSize(h, w)
	kw := p.KernelW
	colW := c * p.KernelH * kw
	for pl := plo; pl < phi; pl++ {
		ni, ci := pl/c, pl%c
		plane := dx.data[pl*h*w : (pl+1)*h*w]
		clear(plane)
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				src := cols[((ni*oh+oy)*ow+ox)*colW+ci*p.KernelH*kw:]
				ix0 := ox*p.StrideW - p.PadW
				interior := ix0 >= 0 && ix0+kw <= w
				for ky := 0; ky < p.KernelH; ky++ {
					iy := oy*p.StrideH - p.PadH + ky
					if iy < 0 || iy >= h {
						continue
					}
					g := src[ky*kw : (ky+1)*kw]
					if interior {
						dst := plane[iy*w+ix0:][:kw]
						for kx, v := range g {
							dst[kx] += v
						}
						continue
					}
					for kx, v := range g {
						if ix := ix0 + kx; ix >= 0 && ix < w {
							plane[iy*w+ix] += v
						}
					}
				}
			}
		}
	}
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
