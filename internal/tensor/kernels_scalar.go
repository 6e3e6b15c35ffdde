package tensor

import "math"

// Scalar reference kernels.
//
// Every unrolled or otherwise transformed kernel in this package keeps a
// one-loop scalar twin here. The references are the ground truth the
// property tests pin the fast kernels against (see kernels_test.go);
// they are never called on the serving path.

// DotScalar is the reference inner product: one serial accumulator, no
// unrolling.
func DotScalar(a, b Vector) float32 {
	if len(a) != len(b) {
		panic("tensor: DotScalar length mismatch")
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AxpyScalar is the reference y += a·x.
func AxpyScalar(a float32, x, y Vector) {
	if len(x) != len(y) {
		panic("tensor: AxpyScalar length mismatch")
	}
	for i := range x {
		y[i] += a * x[i]
	}
}

// ScaleScalar is the reference v *= a.
func ScaleScalar(v Vector, a float32) {
	for i := range v {
		v[i] *= a
	}
}

// AddScalar is the reference v += w.
func AddScalar(v, w Vector) {
	if len(v) != len(w) {
		panic("tensor: AddScalar length mismatch")
	}
	for i := range v {
		v[i] += w[i]
	}
}

// ExpIntoScalar is the reference for ExpInto: float64 math.Exp per
// element, float64 accumulation.
func ExpIntoScalar(dst, src Vector, shift float32) float32 {
	if len(dst) != len(src) {
		panic("tensor: ExpIntoScalar length mismatch")
	}
	var sum float64
	for i, x := range src {
		e := float32(math.Exp(float64(x - shift)))
		dst[i] = e
		sum += float64(e)
	}
	return float32(sum)
}

// DotRowsScalar is the reference for DotRows: y[i] = DotScalar(row i of
// a, x), where a is row-major with len(x) columns and len(y) rows.
func DotRowsScalar(a []float32, x, y Vector) {
	c := len(x)
	if len(a) != c*len(y) {
		panic("tensor: DotRowsScalar shape mismatch")
	}
	for i := range y {
		y[i] = DotScalar(a[i*c:(i+1)*c], x)
	}
}

// WeightedSumRowsScalar is the reference for WeightedSumRows: for each
// row i of a (len(y) columns, len(p) rows) in ascending order, skip it
// when skip > 0 && p[i] < skip (counted), otherwise AxpyScalar(p[i],
// row i, y). It returns the number of rows skipped by the threshold.
func WeightedSumRowsScalar(p Vector, a []float32, y Vector, skip float32) int {
	c := len(y)
	if len(a) != c*len(p) {
		panic("tensor: WeightedSumRowsScalar shape mismatch")
	}
	skipped := 0
	for i, w := range p {
		if skip > 0 && w < skip {
			skipped++
			continue
		}
		AxpyScalar(w, a[i*c:(i+1)*c], y)
	}
	return skipped
}
