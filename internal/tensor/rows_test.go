package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Row-kernel conformance: on every registered tier, dotRows must be
// bit-identical to that tier's dot called once per row, and wsumRows to
// that tier's axpy called once per surviving row in ascending order
// (the per-tier contract in dispatch.go). The inputs cover empty and
// single-row blocks, every column count 0..130 (multiples of 8 and
// not), misaligned bases, weights that are ±0, NaN or ±Inf, and skip
// thresholds that are disabled (≤0, NaN) or live.

// rowSkips are the thresholds the row-kernel tests sweep.
var rowSkips = []float32{0, -1, float32(math.NaN()), 0.05, 0.5, float32(math.Inf(1))}

// rowWeights returns n attention-like weights with specials spliced in.
func rowWeights(r *rand.Rand, n int) Vector {
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), 0.05, -0.25}
	p := NewVector(n)
	for i := range p {
		if r.Intn(4) == 0 {
			p[i] = specials[r.Intn(len(specials))]
			continue
		}
		p[i] = r.Float32()
	}
	return p
}

// perRowDot is the loop dotRows replaces, on one tier.
func perRowDot(tab kernelTable, a []float32, x, y Vector) {
	c := len(x)
	for i := range y {
		y[i] = tab.dot(a[i*c:(i+1)*c], x)
	}
}

// perRowWeightedSum is the loop wsumRows replaces, on one tier.
func perRowWeightedSum(tab kernelTable, p Vector, a []float32, y Vector, skip float32) int {
	c := len(y)
	skipped := 0
	for i, w := range p {
		if skip > 0 && w < skip {
			skipped++
			continue
		}
		tab.axpy(w, a[i*c:(i+1)*c], y)
	}
	return skipped
}

// checkRowKernels runs both row kernels of one tier against the per-row
// loops on the same inputs and reports the first bit difference.
func checkRowKernels(t *testing.T, tier string, a []float32, x, p, y0 Vector, skip float32) {
	t.Helper()
	tab := kernelTiers[tier]
	rows := len(p)

	got, want := NewVector(rows), NewVector(rows)
	tab.dotRows(a, x, got)
	perRowDot(tab, a, x, want)
	for i := range got {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("%s dotRows rows=%d cols=%d: y[%d] = %x, per-row Dot %x",
				tier, rows, len(x), i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}

	yGot, yWant := y0.Clone(), y0.Clone()
	nGot := tab.wsumRows(p, a, yGot, skip)
	nWant := perRowWeightedSum(tab, p, a, yWant, skip)
	if nGot != nWant {
		t.Fatalf("%s wsumRows rows=%d cols=%d skip=%v: skipped %d, per-row loop %d",
			tier, rows, len(y0), skip, nGot, nWant)
	}
	for j := range yGot {
		if !bitsEqual(yGot[j], yWant[j]) {
			t.Fatalf("%s wsumRows rows=%d cols=%d skip=%v: y[%d] = %x, per-row Axpy %x",
				tier, rows, len(y0), skip, j, math.Float32bits(yGot[j]), math.Float32bits(yWant[j]))
		}
	}
}

func TestRowKernelsMatchPerRowLoops(t *testing.T) {
	for _, tier := range KernelTiers() {
		t.Run(tier, func(t *testing.T) {
			r := rand.New(rand.NewSource(95))
			for cols := 0; cols <= 130; cols++ {
				for _, rows := range []int{0, 1, 2, 3, 7, 33} {
					off := (cols + rows) % 8
					a := offsetVector(RandomVector(r, rows*cols, 1), off)
					x := offsetVector(RandomVector(r, cols, 1), off)
					p := offsetVector(rowWeights(r, rows), off)
					// Negative zeros in y pin the ±0 fast-out: adding +0 would
					// flip them.
					y0 := offsetVector(RandomVector(r, cols, 1), off)
					for j := 0; j < cols; j += 5 {
						y0[j] = float32(math.Copysign(0, -1))
					}
					for _, skip := range rowSkips {
						checkRowKernels(t, tier, a, x, p, y0, skip)
					}
				}
			}
		})
	}
}

// TestRowKernelsSpecialRows drives NaN and ±Inf through the row data as
// well as the weights: a skipped row must contribute nothing even when
// it holds NaN, and a kept one must propagate it exactly as Axpy does.
func TestRowKernelsSpecialRows(t *testing.T) {
	r := rand.New(rand.NewSource(96))
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0}
	for _, tier := range KernelTiers() {
		for _, cols := range []int{1, 7, 8, 9, 24, 31, 32, 33, 64, 100, 128} {
			const rows = 19
			a := RandomVector(r, rows*cols, 4)
			for i := range a {
				if r.Intn(9) == 0 {
					a[i] = specials[r.Intn(len(specials))]
				}
			}
			x := RandomVector(r, cols, 1)
			p := rowWeights(r, rows)
			y0 := RandomVector(r, cols, 1)
			for _, skip := range rowSkips {
				checkRowKernels(t, tier, a, x, p, y0, skip)
			}
		}
	}
}

// TestRowKernelWrappers pins the exported DotRows and WeightedSumRows
// to the per-row loops over a row range of a larger matrix, and their
// shape checks.
func TestRowKernelWrappers(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	m := RandomMatrix(r, 40, 24, 1)
	x := RandomVector(r, 24, 1)
	y := NewVector(10)
	DotRows(m, 13, x, y)
	for i := range y {
		if want := Dot(m.Row(13+i), x); !bitsEqual(y[i], want) {
			t.Fatalf("DotRows y[%d] = %v, Dot %v", i, y[i], want)
		}
	}
	p := rowWeights(r, 10)
	o, oRef := NewVector(24), NewVector(24)
	n := WeightedSumRows(p, m, 30, o, 0.2)
	nRef := 0
	for i, w := range p {
		if w < 0.2 {
			nRef++
			continue
		}
		Axpy(w, m.Row(30+i), oRef)
	}
	if n != nRef {
		t.Fatalf("WeightedSumRows skipped %d, want %d", n, nRef)
	}
	for j := range o {
		if !bitsEqual(o[j], oRef[j]) {
			t.Fatalf("WeightedSumRows o[%d] = %v, per-row Axpy %v", j, o[j], oRef[j])
		}
	}
	for name, f := range map[string]func(){
		"dot past end":  func() { DotRows(m, 31, x, y) },
		"dot cols":      func() { DotRows(m, 0, x[:23], y) },
		"dot negative":  func() { DotRows(m, -1, x, y) },
		"wsum past end": func() { WeightedSumRows(p, m, 31, o, 0) },
		"wsum cols":     func() { WeightedSumRows(p, m, 0, o[:23], 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRowKernelsNoAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(98))
	m := RandomMatrix(r, 256, 24, 1)
	x := RandomVector(r, 24, 1)
	y := NewVector(256)
	o := NewVector(24)
	if n := testing.AllocsPerRun(50, func() {
		DotRows(m, 0, x, y)
		WeightedSumRows(y, m, 0, o, 0.1)
	}); n != 0 {
		t.Fatalf("row kernels allocate %v times per call", n)
	}
}

func BenchmarkRowKernels(b *testing.B) {
	for _, cols := range []int{24, 128} {
		r := rand.New(rand.NewSource(99))
		const rows = 4096
		m := RandomMatrix(r, rows, cols, 1)
		x := RandomVector(r, cols, 1)
		p := NewVector(rows)
		for i := range p {
			p[i] = r.Float32()
		}
		y, z := NewVector(cols), NewVector(rows)
		for _, tier := range KernelTiers() {
			tab := kernelTiers[tier]
			b.Run(tier+"/dot/ed"+itoa(cols), func(b *testing.B) {
				b.SetBytes(int64(rows * cols * 4))
				for i := 0; i < b.N; i++ {
					tab.dotRows(m.Data, x, z)
				}
			})
			b.Run(tier+"/perrow-dot/ed"+itoa(cols), func(b *testing.B) {
				b.SetBytes(int64(rows * cols * 4))
				for i := 0; i < b.N; i++ {
					perRowDot(tab, m.Data, x, z)
				}
			})
			b.Run(tier+"/wsum/ed"+itoa(cols), func(b *testing.B) {
				b.SetBytes(int64(rows * cols * 4))
				for i := 0; i < b.N; i++ {
					tab.wsumRows(p, m.Data, y, 0)
				}
			})
			b.Run(tier+"/perrow-wsum/ed"+itoa(cols), func(b *testing.B) {
				b.SetBytes(int64(rows * cols * 4))
				for i := 0; i < b.N; i++ {
					perRowWeightedSum(tab, p, m.Data, y, 0)
				}
			})
		}
	}
}
