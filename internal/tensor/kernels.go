package tensor

import "fmt"

// MatVec computes y = A·x where A is rows×cols and x has length cols.
// y must have length rows. The pool, if non-nil, parallelizes over rows.
//
//mnnfast:hotpath
func MatVec(p *Pool, a *Matrix, x, y Vector) {
	if a.Cols != len(x) || a.Rows != len(y) {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch A=%dx%d x=%d y=%d", a.Rows, a.Cols, len(x), len(y)))
	}
	if p.Workers() == 1 || a.Rows < 2*64 {
		// Serial path stays free of pool traffic: small matrices and
		// serial pools never touch the dispatch-state pool.
		dotRowsImpl(a.Data[:a.Rows*a.Cols], x, y)
		return
	}
	s := getMatVecState(a, x, y)
	p.ParallelFor(a.Rows, 64, s.fn)
	putMatVecState(s)
}

// VecMat computes y = xᵀ·A where A is rows×cols and x has length rows.
// y must have length cols. This is the access pattern of the weighted
// sum o = Σ pᵢ·m_iᴼᵁᵀ: one streaming pass over the rows of A.
//
//mnnfast:hotpath
func VecMat(p *Pool, x Vector, a *Matrix, y Vector) {
	if a.Rows != len(x) || a.Cols != len(y) {
		panic(fmt.Sprintf("tensor: VecMat shape mismatch x=%d A=%dx%d y=%d", len(x), a.Rows, a.Cols, len(y)))
	}
	if w := p.Workers(); w > 1 && a.Rows >= 2*w {
		// Parallelize over row bands with private arena accumulators,
		// reduced into y under a short lock. Rows are the long axis
		// (ns), columns are short (ed), so the reduction is cheap —
		// exactly the scale-out argument of the paper's column-based
		// algorithm (§3.1). The accumulators come from the vector arena
		// and the dispatch closure from the pooled state: no per-worker
		// or per-call allocation at steady state.
		y.Zero()
		s := getVecMatState(a, x, y)
		p.ParallelFor(a.Rows, 64, s.fn)
		putVecMatState(s)
		return
	}
	y.Zero()
	wsumRowsImpl(x, a.Data[:a.Rows*a.Cols], y, 0)
}

// DotRows computes y[i] = Dot(a.Row(lo+i), x) for every i < len(y) —
// the inner-product row loop u·M_INᵀ of a hop (§3) — in one dispatched
// kernel call. On every tier the result is bit-identical to calling
// that tier's Dot once per row; the fast tiers just drop the per-row
// call overhead and, on avx2, keep the reduction in registers.
//
//mnnfast:hotpath
func DotRows(a *Matrix, lo int, x, y Vector) {
	if a.Cols != len(x) || lo < 0 || lo+len(y) > a.Rows {
		panic(fmt.Sprintf("tensor: DotRows shape mismatch A=%dx%d lo=%d x=%d y=%d", a.Rows, a.Cols, lo, len(x), len(y)))
	}
	dotRowsImpl(a.Data[lo*a.Cols:(lo+len(y))*a.Cols], x, y)
}

// WeightedSumRows accumulates y += p[i]·a.Row(lo+i) over i ascending —
// the weighted-sum row loop Σ pᵢ·m_iᴼᵁᵀ of a hop (§3) — in one
// dispatched kernel call. A row is skipped when skip > 0 && p[i] < skip
// (zero-skipping, Algorithm 1); those rows are counted and the count is
// returned. Otherwise the row is accumulated exactly as the tier's Axpy
// would, so on every tier the result is bit-identical to the per-row
// loop "if skip > 0 && p[i] < skip { continue }; Axpy(p[i], row, y)" —
// including the fast tiers' a == 0 fast-out, which skips zero weights
// without counting them.
//
//mnnfast:hotpath
func WeightedSumRows(p Vector, a *Matrix, lo int, y Vector, skip float32) int {
	if a.Cols != len(y) || lo < 0 || lo+len(p) > a.Rows {
		panic(fmt.Sprintf("tensor: WeightedSumRows shape mismatch p=%d A=%dx%d lo=%d y=%d", len(p), a.Rows, a.Cols, lo, len(y)))
	}
	return wsumRowsImpl(p, a.Data[lo*a.Cols:(lo+len(p))*a.Cols], y, skip)
}

// dotRowsGo is the portable DotRows tier: dotGo per row.
//
//mnnfast:hotpath
func dotRowsGo(a []float32, x, y Vector) {
	c := len(x)
	for i := range y {
		y[i] = dotGo(a[i*c:(i+1)*c], x)
	}
}

// wsumRowsGo is the portable WeightedSumRows tier: axpyGo (with its
// a == 0 fast-out) per surviving row.
//
//mnnfast:hotpath
func wsumRowsGo(p Vector, a []float32, y Vector, skip float32) int {
	c := len(y)
	skipped := 0
	for i, w := range p {
		if skip > 0 && w < skip {
			skipped++
			continue
		}
		axpyGo(w, a[i*c:(i+1)*c], y)
	}
	return skipped
}

// MatMul computes C = A·B with a cache-blocked i-k-j loop order. A is
// m×k, B is k×n, C must be m×n and is overwritten. The pool, if
// non-nil, parallelizes over row blocks of C.
func MatMul(p *Pool, a, b, c *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	const blk = 64
	c.Zero()
	p.ParallelFor(a.Rows, blk, func(lo, hi int) {
		for i0 := lo; i0 < hi; i0 += blk {
			i1 := min(i0+blk, hi)
			for k0 := 0; k0 < a.Cols; k0 += blk {
				k1 := min(k0+blk, a.Cols)
				for i := i0; i < i1; i++ {
					ci := c.Row(i)
					ai := a.Row(i)
					for k := k0; k < k1; k++ {
						Axpy(ai[k], b.Row(k), ci)
					}
				}
			}
		}
	})
}

// AddBias adds vector b to every row of m.
func AddBias(m *Matrix, b Vector) {
	if m.Cols != len(b) {
		panic(fmt.Sprintf("tensor: AddBias shape mismatch m.Cols=%d b=%d", m.Cols, len(b)))
	}
	for i := 0; i < m.Rows; i++ {
		m.Row(i).AddInPlace(b)
	}
}

// OuterAccumulate computes A += x·yᵀ, the rank-1 update used by the
// training gradients. x has length A.Rows, y has length A.Cols.
func OuterAccumulate(a *Matrix, x, y Vector, scale float32) {
	if a.Rows != len(x) || a.Cols != len(y) {
		panic(fmt.Sprintf("tensor: OuterAccumulate shape mismatch A=%dx%d x=%d y=%d", a.Rows, a.Cols, len(x), len(y)))
	}
	for i := range x {
		Axpy(scale*x[i], y, a.Row(i))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
