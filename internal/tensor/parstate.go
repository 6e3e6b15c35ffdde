package tensor

import "sync"

// Pooled dispatch state for the parallel kernels.
//
// A ParallelFor body written as a closure literal captures the kernel
// operands and escapes to the heap on every call — one allocation per
// MatVec/VecMat/SoftmaxRows/Map on the serving hot path (the finding
// DESIGN.md §9 deferred and lint.baseline used to carry). The fix is
// the sched.runState idiom used by internal/core: each kernel draws a
// state struct from a process-wide sync.Pool whose dispatch closure was
// built once, at pool-New time, over the struct's fields. A call sets
// the fields, dispatches the prebuilt closure, clears the fields (so
// the pool does not pin caller data), and returns the state — zero
// allocations at steady state.
//
// The fields are written before the dispatch and read-only inside it;
// ParallelFor's completion barrier orders the clears after every worker
// has finished.

// matVecState carries the operands of one parallel MatVec dispatch.
type matVecState struct {
	a    *Matrix
	x, y Vector
	fn   func(lo, hi int)
}

var matVecPool = sync.Pool{New: func() any {
	s := new(matVecState)
	s.fn = func(lo, hi int) {
		DotRows(s.a, lo, s.x, s.y[lo:hi])
	}
	return s
}}

//mnnfast:pool-get
func getMatVecState(a *Matrix, x, y Vector) *matVecState {
	s := matVecPool.Get().(*matVecState)
	s.a, s.x, s.y = a, x, y
	return s
}

//mnnfast:pool-put
func putMatVecState(s *matVecState) {
	s.a, s.x, s.y = nil, nil, nil
	matVecPool.Put(s)
}

// vecMatState carries the operands of one parallel VecMat dispatch.
// Each span accumulates into a private arena vector and reduces into y
// under the embedded mutex.
type vecMatState struct {
	mu   sync.Mutex
	a    *Matrix
	x, y Vector
	fn   func(lo, hi int)
}

var vecMatPool = sync.Pool{New: func() any {
	s := new(vecMatState)
	s.fn = func(lo, hi int) {
		a, x := s.a, s.x
		accp := GetVector(a.Cols)
		acc := *accp
		WeightedSumRows(x[lo:hi], a, lo, acc, 0)
		s.mu.Lock()
		s.y.AddInPlace(acc)
		s.mu.Unlock()
		PutVector(accp)
	}
	return s
}}

//mnnfast:pool-get
func getVecMatState(a *Matrix, x, y Vector) *vecMatState {
	s := vecMatPool.Get().(*vecMatState)
	s.a, s.x, s.y = a, x, y
	return s
}

//mnnfast:pool-put
func putVecMatState(s *vecMatState) {
	s.a, s.x, s.y = nil, nil, nil
	vecMatPool.Put(s)
}

// softmaxRowsState carries the matrix of one parallel SoftmaxRows
// dispatch.
type softmaxRowsState struct {
	m  *Matrix
	fn func(lo, hi int)
}

var softmaxRowsPool = sync.Pool{New: func() any {
	s := new(softmaxRowsState)
	s.fn = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			Softmax(s.m.Row(i))
		}
	}
	return s
}}

//mnnfast:pool-get
func getSoftmaxRowsState(m *Matrix) *softmaxRowsState {
	s := softmaxRowsPool.Get().(*softmaxRowsState)
	s.m = m
	return s
}

//mnnfast:pool-put
func putSoftmaxRowsState(s *softmaxRowsState) {
	s.m = nil
	softmaxRowsPool.Put(s)
}

// mapState adapts a per-index callback to a span body for Pool.Map
// without re-wrapping it in a fresh closure per call.
type mapState struct {
	fn1 func(i int)
	fn  func(lo, hi int)
}

var mapPool = sync.Pool{New: func() any {
	s := new(mapState)
	s.fn = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.fn1(i)
		}
	}
	return s
}}

//mnnfast:pool-get
func getMapState(fn1 func(i int)) *mapState {
	s := mapPool.Get().(*mapState)
	s.fn1 = fn1
	return s
}

//mnnfast:pool-put
func putMapState(s *mapState) {
	s.fn1 = nil
	mapPool.Put(s)
}
