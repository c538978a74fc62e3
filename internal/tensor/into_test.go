package tensor

import (
	"fmt"
	"math"
	"testing"

	"fedmigr/internal/sched"
)

// The references below are the textbook loops the tiled kernels must match
// bit for bit: zero-initialized output, one term at a time, p ascending,
// zero multiplicands skipped where the kernel contract says so.

func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.data[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c.data[i*n+j] += av * b.data[p*n+j]
			}
		}
	}
	return c
}

func refMatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.data[p*m+i]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c.data[i*n+j] += av * b.data[p*n+j]
			}
		}
	}
	return c
}

func refMatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.data[i*k+p] * b.data[j*k+p]
			}
			c.data[i*n+j] = s
		}
	}
	return c
}

func refIm2Col(x *Tensor, p ConvParams) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutSize(h, w)
	colW := c * p.KernelH * p.KernelW
	cols := New(n*oh*ow, colW)
	for r := 0; r < n*oh*ow; r++ {
		ni, oy, ox := r/(oh*ow), (r/ow)%oh, r%ow
		col := 0
		for ci := 0; ci < c; ci++ {
			for ky := 0; ky < p.KernelH; ky++ {
				for kx := 0; kx < p.KernelW; kx++ {
					iy, ix := oy*p.StrideH-p.PadH+ky, ox*p.StrideW-p.PadW+kx
					if iy >= 0 && iy < h && ix >= 0 && ix < w {
						cols.data[r*colW+col] = x.data[((ni*c+ci)*h+iy)*w+ix]
					}
					col++
				}
			}
		}
	}
	return cols
}

func refCol2Im(cols *Tensor, n, c, h, w int, p ConvParams) *Tensor {
	oh, ow := p.OutSize(h, w)
	colW := c * p.KernelH * p.KernelW
	x := New(n, c, h, w)
	for r := 0; r < n*oh*ow; r++ {
		ni, oy, ox := r/(oh*ow), (r/ow)%oh, r%ow
		col := 0
		for ci := 0; ci < c; ci++ {
			for ky := 0; ky < p.KernelH; ky++ {
				for kx := 0; kx < p.KernelW; kx++ {
					iy, ix := oy*p.StrideH-p.PadH+ky, ox*p.StrideW-p.PadW+kx
					if iy >= 0 && iy < h && ix >= 0 && ix < w {
						x.data[((ni*c+ci)*h+iy)*w+ix] += cols.data[r*colW+col]
					}
					col++
				}
			}
		}
	}
	return x
}

func refMaxPool(x *Tensor, p ConvParams) (*Tensor, []int) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutSize(h, w)
	out := New(n, c, oh, ow)
	arg := make([]int, out.Size())
	for pl := 0; pl < n*c; pl++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best, bi := 0.0, -1
				for ky := 0; ky < p.KernelH; ky++ {
					for kx := 0; kx < p.KernelW; kx++ {
						iy, ix := oy*p.StrideH-p.PadH+ky, ox*p.StrideW-p.PadW+kx
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							continue
						}
						if v := x.data[(pl*h+iy)*w+ix]; bi < 0 || v > best {
							best, bi = v, (pl*h+iy)*w+ix
						}
					}
				}
				out.data[(pl*oh+oy)*ow+ox], arg[(pl*oh+oy)*ow+ox] = best, bi
			}
		}
	}
	return out, arg
}

func refMaxPoolBackward(g *Tensor, arg []int, inShape []int) *Tensor {
	dx := New(inShape...)
	for i, a := range arg {
		if a >= 0 {
			dx.data[a] += g.data[i]
		}
	}
	return dx
}

// dirty returns an oversized NaN-filled destination: a kernel that relied on
// zeroed memory, or kept a stale length, cannot produce the reference bits.
func dirty(size int) *Tensor {
	return Full(math.NaN(), 2*size+3)
}

// sprinkle plants the multiplicands the zero-skip and the accumulators are
// sensitive to.
func sprinkle(t *Tensor, vals ...float64) {
	for i, v := range vals {
		if n := len(t.data); n > 0 {
			t.data[(i*7+1)%n] = v
		}
	}
}

// requireSameFloats is requireBitEqual except that any NaN matches any NaN:
// which payload survives an addition is the hardware's choice.
func requireSameFloats(t *testing.T, name string, want, got *Tensor) {
	t.Helper()
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %v vs %v", name, want.Shape(), got.Shape())
	}
	for i, w := range want.data {
		g := got.data[i]
		if math.IsNaN(w) && math.IsNaN(g) {
			continue
		}
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("%s: element %d differs: want %v got %v", name, i, w, g)
		}
	}
}

var intoWorkers = []int{1, 8}

// useGoGEMM makes gemmGo the GEMM body until restore is called, so a
// host whose init chose the AVX body holds both bodies to the references.
func useGoGEMM() (restore func()) {
	chosen := gemmBody
	gemmBody = gemmGo
	return func() { gemmBody = chosen }
}

func TestMatMulIntoMatchesReference(t *testing.T) {
	// The AVX body tiles 4 rows by 8 columns over passes of at most 64
	// terms: the rows below cover m = 4q+1..4q+3, n = 8q+1..8q+7, k = 0
	// and k past one pass (65, 72, 129, 192, 200).
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {1, 0, 3}, {3, 1, 5}, {1, 27, 8}, {1, 64, 10}, {2, 3, 4},
		{5, 9, 7}, {7, 4, 9}, {17, 13, 6}, {33, 72, 16}, {64, 27, 8},
		{130, 65, 35}, {8, 192, 33},
		{6, 0, 9}, {4, 8, 8}, {5, 70, 9}, {6, 33, 10}, {7, 129, 11}, {9, 5, 12},
		{10, 64, 13}, {11, 65, 14}, {13, 200, 15}, {12, 7, 17}, {4, 130, 23},
	}
	negZero := math.Copysign(0, -1)
	specials := [][]float64{
		nil,
		{0, negZero, 0, 0, negZero},
		{math.Inf(1), 0, math.NaN(), negZero, math.Inf(-1)},
	}
	for _, s := range shapes {
		for si, sp := range specials {
			g := NewRNG(int64(s.m*1000 + s.k*10 + s.n))
			a, at := randTensor(g, s.m, s.k), randTensor(g, s.k, s.m)
			b, bt := randTensor(g, s.k, s.n), randTensor(g, s.n, s.k)
			// Half-sparse multiplicands, as ReLU leaves them.
			for i := range a.data {
				if i%2 == 1 {
					a.data[i] = 0
				}
			}
			for i := range at.data {
				if i%3 == 1 {
					at.data[i] = 0
				}
			}
			sprinkle(a, sp...)
			sprinkle(at, sp...)
			sprinkle(b, sp...)
			sprinkle(bt, sp...)
			want := []*Tensor{refMatMul(a, b), refMatMulTransA(at, b), refMatMulTransB(a, bt)}
			for _, body := range []string{"init", "go"} {
				restore := func() {}
				if body == "go" {
					restore = useGoGEMM()
				}
				for _, workers := range intoWorkers {
					withPool(workers, func() {
						name := fmt.Sprintf("%dx%dx%d special=%d body=%s workers=%d", s.m, s.k, s.n, si, body, workers)
						size := s.m * s.n
						got := []*Tensor{
							MatMulInto(dirty(size), a, b), MatMulTransAInto(dirty(size), at, b), MatMulTransBInto(dirty(size), a, bt),
							MatMul(a, b), MatMulTransA(at, b), MatMulTransB(a, bt),
						}
						for i, c := range got {
							requireSameFloats(t, fmt.Sprintf("kernel %d %s", i, name), want[i%3], c)
						}
					})
				}
				restore()
			}
		}
	}
}

func TestConvIntoMatchesReference(t *testing.T) {
	cases := []struct {
		n, c, h, w int
		p          ConvParams
	}{
		{1, 1, 4, 4, ConvParams{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1}},
		{1, 1, 1, 1, ConvParams{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}},
		{2, 3, 8, 8, ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{32, 3, 8, 8, ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{4, 3, 10, 10, ConvParams{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
		{8, 4, 9, 7, ConvParams{KernelH: 3, KernelW: 2, StrideH: 1, StrideW: 2}},
		{3, 2, 5, 6, ConvParams{KernelH: 5, KernelW: 4, StrideH: 1, StrideW: 1, PadH: 2, PadW: 3}},
		{2, 2, 3, 3, ConvParams{KernelH: 3, KernelW: 3, StrideH: 3, StrideW: 1, PadH: 0, PadW: 2}},
		// Whole windows lie in the padding: their rows are all zeros, and
		// they scatter nothing.
		{2, 2, 1, 1, ConvParams{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}},
	}
	for ci, tc := range cases {
		g := NewRNG(int64(7 + ci))
		pm := NewPanelMap(tc.c, tc.h, tc.w, tc.p)
		x := randTensor(g, tc.n, tc.c, tc.h, tc.w)
		oh, ow := tc.p.OutSize(tc.h, tc.w)
		cols := randTensor(g, tc.n*oh*ow, tc.c*tc.p.KernelH*tc.p.KernelW)
		sprinkle(cols, math.Copysign(0, -1), 0)
		wantIm := refIm2Col(x, tc.p)
		wantC2I := refCol2Im(cols, tc.n, tc.c, tc.h, tc.w, tc.p)
		for _, workers := range intoWorkers {
			withPool(workers, func() {
				name := fmt.Sprintf("case %d workers=%d", ci, workers)
				requireBitEqual(t, "Im2ColInto "+name, wantIm, Im2ColInto(dirty(wantIm.Size()), x, pm))
				im := Im2Col(x, tc.p)
				requireBitEqual(t, "Im2Col "+name, wantIm, im)
				PutScratch(im)
				dx := Ensure(dirty(wantC2I.Size()), tc.n, tc.c, tc.h, tc.w)
				requireBitEqual(t, "Col2ImInto "+name, wantC2I, Col2ImInto(dx, cols, pm))
				requireBitEqual(t, "Col2Im "+name, wantC2I, Col2Im(cols, tc.n, tc.c, tc.h, tc.w, tc.p))
			})
		}
	}
}

func TestMaxPoolIntoMatchesReference(t *testing.T) {
	cases := []struct {
		n, c, h, w int
		p          ConvParams
	}{
		{2, 3, 8, 8, ConvParams{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}},
		{4, 2, 9, 9, ConvParams{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2}},
		{32, 8, 8, 8, ConvParams{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}},
		{1, 1, 5, 4, ConvParams{KernelH: 3, KernelW: 2, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		// Border windows lie wholly in the padding: value 0, argmax -1.
		{1, 2, 4, 4, ConvParams{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2}},
	}
	for ci, tc := range cases {
		g := NewRNG(int64(11 + ci))
		x := randTensor(g, tc.n, tc.c, tc.h, tc.w)
		wantOut, wantArg := refMaxPool(x, tc.p)
		grad := randTensor(g, wantOut.Shape()...)
		wantBack := refMaxPoolBackward(grad, wantArg, x.Shape())
		for _, workers := range intoWorkers {
			withPool(workers, func() {
				name := fmt.Sprintf("case %d workers=%d", ci, workers)
				arg := make([]int, len(wantArg))
				for i := range arg {
					arg[i] = -7
				}
				into, arg := MaxPool2DInto(dirty(wantOut.Size()), arg[:len(arg)/2], x, tc.p)
				requireBitEqual(t, "MaxPool2DInto "+name, wantOut, into)
				out, warg := MaxPool2D(x, tc.p)
				requireBitEqual(t, "MaxPool2D "+name, wantOut, out)
				for i := range wantArg {
					if arg[i] != wantArg[i] || warg[i] != wantArg[i] {
						t.Fatalf("%s: argmax %d: want %d, Into %d, wrapper %d", name, i, wantArg[i], arg[i], warg[i])
					}
				}
				sched.PutIntBuf(warg)
				dx := Ensure(dirty(x.Size()), x.Shape()...)
				requireBitEqual(t, "MaxPool2DBackwardInto "+name, wantBack, MaxPool2DBackwardInto(dx, grad, arg))
				requireBitEqual(t, "MaxPool2DBackward "+name, wantBack, MaxPool2DBackward(grad, arg, x.Shape()))
			})
		}
	}
}

// refMaxPoolPlanes is maxPoolPlanes as it was before the window select
// went branch-free.
func refMaxPoolPlanes(out []float64, arg []int, x *Tensor, p ConvParams, plo, phi int) {
	h, w := x.shape[2], x.shape[3]
	oh, ow := p.OutSize(h, w)
	for pl := plo; pl < phi; pl++ {
		base := pl * h * w
		for oy := 0; oy < oh; oy++ {
			y0, y1 := max(oy*p.StrideH-p.PadH, 0), min(oy*p.StrideH-p.PadH+p.KernelH, h)
			for ox := 0; ox < ow; ox++ {
				x0, x1 := max(ox*p.StrideW-p.PadW, 0), min(ox*p.StrideW-p.PadW+p.KernelW, w)
				best, bi := 0.0, -1
				for iy := y0; iy < y1; iy++ {
					off := base + iy*w
					for i := off + x0; i < off+x1; i++ {
						if v := x.data[i]; bi < 0 || v > best {
							best, bi = v, i
						}
					}
				}
				oi := (pl*oh+oy)*ow + ox
				out[oi] = best
				arg[oi] = bi
			}
		}
	}
}

// TestMaxPoolSelectMatchesReference holds the branch-free window select to
// the branchy one, bit for bit in value and index, on inputs seeded with
// NaNs of both signs, ±0 and ±Inf, on all-equal windows and on ties drawn
// from a few values, with stride ≠ kernel and with padding ≥ kernel
// (windows wholly in padding), into dirty destinations.
func TestMaxPoolSelectMatchesReference(t *testing.T) {
	negNaN := math.Float64frombits(0xfff8000000000001)
	specials := []float64{math.NaN(), negNaN, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	inputs := map[string]func(g *RNG, x *Tensor){
		"specials": func(g *RNG, x *Tensor) {
			for i := range x.data {
				if x.data[i] = g.NormFloat64(); g.Intn(3) == 0 {
					x.data[i] = specials[g.Intn(len(specials))]
				}
			}
		},
		"equal": func(g *RNG, x *Tensor) {
			for i := range x.data {
				x.data[i] = 1.5
			}
		},
		"signed zeros": func(g *RNG, x *Tensor) {
			for i := range x.data {
				x.data[i] = specials[2+g.Intn(2)]
			}
		},
		"ties": func(g *RNG, x *Tensor) {
			for i := range x.data {
				x.data[i] = float64(g.Intn(3) - 1)
			}
		},
	}
	geoms := []ConvParams{
		{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2},
		{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2},
		{KernelH: 2, KernelW: 3, StrideH: 1, StrideW: 2, PadH: 1, PadW: 1},
		{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2},
		{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 3, PadH: 3, PadW: 2},
	}
	for name, fill := range inputs {
		for gi, p := range geoms {
			g := NewRNG(int64(100 + gi))
			// Large enough that 8 workers split the planes.
			n, c, h, w := 64, 8, 16, 15
			x := New(n, c, h, w)
			fill(g, x)
			size := poolOutSize(x, p)
			oh, ow := p.OutSize(h, w)
			want, wantArg := New(n, c, oh, ow), make([]int, size)
			refMaxPoolPlanes(want.data, wantArg, x, p, 0, n*c)
			for _, workers := range intoWorkers {
				withPool(workers, func() {
					what := fmt.Sprintf("%s geometry %d workers=%d", name, gi, workers)
					arg := make([]int, size)
					for i := range arg {
						arg[i] = -7
					}
					out, arg := MaxPool2DInto(dirty(size), arg, x, p)
					requireBitEqual(t, what, want, out)
					for i := range wantArg {
						if arg[i] != wantArg[i] {
							t.Fatalf("%s: argmax %d is %d, reference %d", what, i, arg[i], wantArg[i])
						}
					}
				})
			}
		}
	}
}

func TestSumRowsIntoAndEnsure(t *testing.T) {
	g := NewRNG(3)
	x := randTensor(g, 5, 7)
	requireBitEqual(t, "SumRowsInto", x.SumRows(), x.SumRowsInto(dirty(7)))

	big := New(4, 8)
	store := &big.Data()[0]
	small := Ensure(big, 2, 3)
	if small != big || small.Size() != 6 || small.Rank() != 2 || small.Dim(1) != 3 {
		t.Fatalf("Ensure did not reshape in place: %v", small.Shape())
	}
	if again := Ensure(small, 4, 8); again != big || &again.Data()[0] != store {
		t.Fatal("Ensure reallocated within capacity (32 → 6 → 32 must reuse storage)")
	}
	if grown := Ensure(big, 5, 8); grown == big || grown.Size() != 40 || grown.Sum() != 0 {
		t.Fatal("Ensure beyond capacity must return a fresh zeroed tensor")
	}
	if n := testing.AllocsPerRun(10, func() { Ensure(big, 2, 2, 2) }); n != 0 {
		t.Fatalf("Ensure within capacity allocates %v times", n)
	}

	var view *Tensor
	view = big.ReshapeInto(view, 2, -1)
	if view.Dim(1) != big.Size()/2 || &view.Data()[0] != &big.Data()[0] {
		t.Fatalf("ReshapeInto view wrong: %v", view.Shape())
	}
	if n := testing.AllocsPerRun(10, func() { big.ReshapeInto(view, 4, -1) }); n != 0 {
		t.Fatalf("ReshapeInto with a header allocates %v times", n)
	}
}

// TestIntoKernelsAllocateNothing pins the serial hot path: with warmed
// destinations no kernel touches the heap.
func TestIntoKernelsAllocateNothing(t *testing.T) {
	g := NewRNG(5)
	p := ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := randTensor(g, 4, 3, 8, 8)
	pm := NewPanelMap(3, 8, 8, p)
	cols := Im2ColInto(nil, x, pm)
	k := randTensor(g, 8, 27)
	out := MatMulTransBInto(nil, cols, k)
	dk := MatMulTransAInto(nil, out, cols)
	dcols := MatMulInto(nil, out, k)
	dx := New(4, 3, 8, 8)
	pp := ConvParams{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}
	arg := make([]int, 4*3*4*4)
	pooled, arg := MaxPool2DInto(nil, arg, x, pp)
	sums := out.SumRowsInto(nil)
	n := testing.AllocsPerRun(5, func() {
		Im2ColInto(cols, x, pm)
		MatMulTransBInto(out, cols, k)
		MatMulTransAInto(dk, out, cols)
		MatMulInto(dcols, out, k)
		Col2ImInto(dx, dcols, pm)
		MaxPool2DInto(pooled, arg, x, pp)
		MaxPool2DBackwardInto(dx, pooled, arg)
		out.SumRowsInto(sums)
	})
	if n != 0 {
		t.Fatalf("warmed Into kernels allocate %v times per pass", n)
	}
}
