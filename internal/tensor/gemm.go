package tensor

// The GEMM kernel under MatMul, MatMulTransA and MatMulTransB: gemmRows
// splits the output rows for the worker pool, and a body computes a range
// of them. Each output element is +0 plus its terms in ascending p, every
// product rounded to float64 before it is added, so a body may keep its
// accumulators in vector lanes (one lane per output column) and may store
// and reload them between passes over k without changing a bit. The body is
// chosen once at package init: gemmAVX on amd64 hosts that have AVX
// (gemm_amd64.s), gemmGo everywhere else.

// gemmBody sets C(r,j) = Σ_p A(r,p)·B(p,j) for rows r < rows and columns
// j < n, where C(r,j) = c[r·n+j], A(r,p) = a[r·ai+p·ap] and B(p,j) =
// b[p·bp+j·bj], p ascending from +0 over k ≥ 1 terms. With skip set, the
// terms whose A(r,p) is zero (either sign) are left out. B is row-major
// (bj = 1) or, without skip, column-major with a row-major A (bp = ap = 1):
// MatMul and MatMulTransA skip over a row-major B, MatMulTransB adds every
// term over a column-major one (a single-term one has bj = 1 too).
var gemmBody = gemmGo

// gemmRows sets c[i][j] = Σ_p A(i,p)·B(p,j) for output rows [lo, hi) of the
// n-wide c, where A(i,p) = a[i·ai+p·ap] and B(p,j) = b[p·n+j], or b[j·k+p]
// when transB. Without transB the terms whose A(i,p) is zero are skipped
// (MatMul's contract); with it every term is added.
func gemmRows(c, a []float64, ai, ap int, b []float64, k, n int, transB bool, lo, hi int) {
	if lo >= hi || n == 0 {
		return
	}
	if k == 0 {
		clear(c[lo*n : hi*n])
		return
	}
	bp, bj := n, 1
	if transB {
		bp, bj = 1, k
	}
	gemmBody(c[lo*n:], a[lo*ai:], ai, ap, b, bp, bj, hi-lo, k, n, !transB)
}

// gemmGo is gemmBody in plain Go, in the loop shapes scalar code runs
// fastest: for row-major B, four nonzero terms are gathered and then added
// along the whole output row in one pass, so C is loaded and stored once
// per four terms; for column-major B, each output element is a dot product,
// four columns at a time in four accumulators. float64(av·b) rounds every
// product, so no compiler may fuse it with the addition into a
// multiply-add.
func gemmGo(c, a []float64, ai, ap int, b []float64, bp, bj, rows, k, n int, skip bool) {
	if bj != 1 {
		gemmDots(c, a, ai, b, bj, rows, k, n)
		return
	}
	for r := 0; r < rows; r++ {
		cr, ar := c[r*n:][:n], a[r*ai:]
		clear(cr)
		var av [4]float64
		var bo [4]int
		cnt := 0
		for p := 0; p < k; p++ {
			v := ar[p*ap]
			if skip && v == 0 {
				continue
			}
			av[cnt], bo[cnt] = v, p*bp
			if cnt++; cnt == 4 {
				cnt = 0
				addTerms(cr, &av, b, &bo, 4)
			}
		}
		addTerms(cr, &av, b, &bo, cnt)
	}
}

// gemmDots is gemmGo for column-major B, B(p,j) = b[p+j·bj], and row-major
// A, A(r,p) = a[r·ai+p], adding every term.
func gemmDots(c, a []float64, ai int, b []float64, bj, rows, k, n int) {
	for r := 0; r < rows; r++ {
		cr, ar := c[r*n:][:n], a[r*ai:][:k]
		j := 0
		for ; j+4 <= n; j += 4 {
			cr[j], cr[j+1], cr[j+2], cr[j+3] = dot4(ar, b[j*bj:], bj)
		}
		for ; j < n; j++ {
			bc := b[j*bj:][:k]
			s := 0.0
			for p, av := range ar {
				s += float64(av * bc[p])
			}
			cr[j] = s
		}
	}
}

// dot4 returns Σ_p a[p]·b[q·bj+p] for q < 4, p ascending over len(a): four
// dot products in four accumulators. A function of its own, so that its
// loop keeps every pointer in a register.
func dot4(a, b []float64, bj int) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 := b[:len(a)], b[bj:][:len(a)], b[2*bj:][:len(a)], b[3*bj:][:len(a)]
	for p, av := range a {
		s0 += float64(av * b0[p])
		s1 += float64(av * b1[p])
		s2 += float64(av * b2[p])
		s3 += float64(av * b3[p])
	}
	return s0, s1, s2, s3
}

// addTerms adds the first cnt ≤ 4 gathered terms a[q]·b[off[q]:] to cr in
// one pass, in q order: cr[j] = (((cr[j] + t0) + t1) + t2) + t3.
func addTerms(cr []float64, a *[4]float64, b []float64, off *[4]int, cnt int) {
	n := len(cr)
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	switch cnt {
	case 4:
		b0, b1, b2, b3 := b[off[0]:][:n], b[off[1]:][:n], b[off[2]:][:n], b[off[3]:][:n]
		for j := range cr {
			cr[j] = cr[j] + float64(a0*b0[j]) + float64(a1*b1[j]) + float64(a2*b2[j]) + float64(a3*b3[j])
		}
	case 3:
		b0, b1, b2 := b[off[0]:][:n], b[off[1]:][:n], b[off[2]:][:n]
		for j := range cr {
			cr[j] = cr[j] + float64(a0*b0[j]) + float64(a1*b1[j]) + float64(a2*b2[j])
		}
	case 2:
		b0, b1 := b[off[0]:][:n], b[off[1]:][:n]
		for j := range cr {
			cr[j] = cr[j] + float64(a0*b0[j]) + float64(a1*b1[j])
		}
	case 1:
		b0 := b[off[0]:][:n]
		for j := range cr {
			cr[j] += float64(a0 * b0[j])
		}
	}
}
