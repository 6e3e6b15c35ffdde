package memnn

import (
	"fmt"
	"math/rand"
	"time"

	"mnnfast/internal/sched"
	"mnnfast/internal/tensor"
	"mnnfast/internal/trace"
)

// Tying selects the weight-sharing scheme between hops (Sukhbaatar et
// al. §2.2).
type Tying int

// Weight-tying schemes.
const (
	// TyingAdjacent: the memory-input embedding of hop k+1 is the
	// memory-output embedding of hop k (A^{k+1} = C^k), and the
	// internal state updates as u' = u + o.
	TyingAdjacent Tying = iota
	// TyingLayerwise: one A and one C shared by every hop (RNN-like),
	// with a learned linear map H on the internal state:
	// u' = H·u + o.
	TyingLayerwise
)

// String names the scheme.
//
//mnnfast:coldpath
func (t Tying) String() string {
	switch t {
	case TyingAdjacent:
		return "adjacent"
	case TyingLayerwise:
		return "layerwise"
	}
	return fmt.Sprintf("tying(%d)", int(t))
}

// Config describes a K-hop end-to-end memory network.
type Config struct {
	Dim     int     // ed, embedding dimension
	Hops    int     // K, number of memory hops
	Vocab   int     // V, vocabulary size
	Answers int     // number of answer classes
	MaxSent int     // ns capacity, sizes the temporal encoding tables
	InitStd float32 // weight init stddev (0 → 0.1, the paper's default)
	// Position selects position encoding (PE) for sentence embeddings
	// instead of plain bag-of-words, preserving word order (§4.1 of
	// the MemN2N paper; the MnnFast paper's §2.1 footnote).
	Position bool
	// Tying selects the weight-sharing scheme; zero value is adjacent.
	Tying Tying
}

func (c Config) validate() error {
	switch {
	case c.Dim < 1:
		return fmt.Errorf("memnn: Dim = %d, want >= 1", c.Dim)
	case c.Hops < 1:
		return fmt.Errorf("memnn: Hops = %d, want >= 1", c.Hops)
	case c.Vocab < 1:
		return fmt.Errorf("memnn: Vocab = %d, want >= 1", c.Vocab)
	case c.Answers < 1:
		return fmt.Errorf("memnn: Answers = %d, want >= 1", c.Answers)
	case c.MaxSent < 1:
		return fmt.Errorf("memnn: MaxSent = %d, want >= 1", c.MaxSent)
	case c.Tying != TyingAdjacent && c.Tying != TyingLayerwise:
		return fmt.Errorf("memnn: unknown tying scheme %d", int(c.Tying))
	}
	return nil
}

// Model holds the learned parameters of a memory network. With adjacent
// tying, Emb holds Hops+1 embedding matrices (A_k = Emb[k-1],
// C_k = Emb[k]) and TimeIn/TimeOut hold one temporal table per hop.
// With layer-wise tying, Emb holds exactly {A, C}, the temporal tables
// are shared across hops (length 1), and H maps the internal state
// between hops. The question embedding B is always separate, and W
// maps the final internal state to answer logits.
type Model struct {
	Cfg     Config
	B       *tensor.Matrix   // V×d, question embedding
	Emb     []*tensor.Matrix // V×d embedding matrices (see Tying)
	TimeIn  []*tensor.Matrix // MaxSent×d temporal encodings
	TimeOut []*tensor.Matrix // MaxSent×d temporal encodings
	H       *tensor.Matrix   // d×d state map (layer-wise tying only)
	W       *tensor.Matrix   // Answers×d, final projection

	// LinearAttention disables the attention softmax (raw inner
	// products become weights) — the "linear start" training phase of
	// the MemN2N paper, which helps escape poor local minima. The
	// trainer toggles it; inference normally leaves it false.
	LinearAttention bool

	// sch distributes a batched pass's story groups over persistent
	// workers (SetParallel). nil runs serially; either way the outputs
	// are bit-identical — groups touch disjoint per-question state and
	// every per-question operation keeps its order.
	sch *sched.Scheduler

	// topk configures approximate top-k attention (SetTopK, topk.go).
	// The zero value keeps every hop exact.
	topk TopKConfig
}

// SetParallel routes the batched predict path's per-story-group work
// over pool's persistent workers through a work-stealing scheduler.
// A nil pool (or never calling SetParallel) keeps the pass serial.
// Parallel and serial passes are bit-identical, so this is purely a
// throughput knob. Not safe to call concurrently with predictions.
//
//mnnfast:coldpath
func (m *Model) SetParallel(pool *tensor.Pool) {
	m.sch = sched.New(pool)
}

// Scheduler exposes the batched-predict scheduler for observability
// (per-worker chunk/steal/idle counters); nil unless SetParallel was
// called.
//
//mnnfast:coldpath
func (m *Model) Scheduler() *sched.Scheduler { return m.sch }

// NewModel initializes a model with N(0, InitStd²) weights from rng.
func NewModel(cfg Config, rng *rand.Rand) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	std := cfg.InitStd
	if std == 0 {
		std = 0.1
	}
	m := &Model{Cfg: cfg}
	m.B = tensor.GaussianMatrix(rng, cfg.Vocab, cfg.Dim, std)
	nEmb, nTime := cfg.Hops+1, cfg.Hops
	if cfg.Tying == TyingLayerwise {
		nEmb, nTime = 2, 1
		m.H = tensor.GaussianMatrix(rng, cfg.Dim, cfg.Dim, std)
	}
	m.Emb = make([]*tensor.Matrix, nEmb)
	for i := range m.Emb {
		m.Emb[i] = tensor.GaussianMatrix(rng, cfg.Vocab, cfg.Dim, std)
	}
	m.TimeIn = make([]*tensor.Matrix, nTime)
	m.TimeOut = make([]*tensor.Matrix, nTime)
	for k := 0; k < nTime; k++ {
		m.TimeIn[k] = tensor.GaussianMatrix(rng, cfg.MaxSent, cfg.Dim, std)
		m.TimeOut[k] = tensor.GaussianMatrix(rng, cfg.MaxSent, cfg.Dim, std)
	}
	m.W = tensor.GaussianMatrix(rng, cfg.Answers, cfg.Dim, std)
	return m, nil
}

// embIn returns the memory-input embedding of hop k.
func (m *Model) embIn(k int) *tensor.Matrix {
	if m.Cfg.Tying == TyingLayerwise {
		return m.Emb[0]
	}
	return m.Emb[k]
}

// embOut returns the memory-output embedding of hop k.
func (m *Model) embOut(k int) *tensor.Matrix {
	if m.Cfg.Tying == TyingLayerwise {
		return m.Emb[1]
	}
	return m.Emb[k+1]
}

// timeIdx maps hop k to a temporal-table index.
func (m *Model) timeIdx(k int) int {
	if m.Cfg.Tying == TyingLayerwise {
		return 0
	}
	return k
}

// Forward holds every intermediate of one example's forward pass; the
// trainer reuses it for backprop and the evaluation code reads the
// per-hop attention vectors from it.
type Forward struct {
	NS     int              // number of story sentences
	U      []tensor.Vector  // Hops+1 internal states (U[0] = question)
	MemIn  []*tensor.Matrix // per hop: ns×d input memory (embedded; see ApplyGated)
	MemOut []*tensor.Matrix // per hop: ns×d output memory (embedded; see ApplyGated)
	P      []tensor.Vector  // per hop: attention weights (length ns)
	O      []tensor.Vector  // per hop: response vector
	Logits tensor.Vector    // answer logits (length Answers)

	// ExitHop is the number of hops the pass actually executed: Hops
	// normally, fewer when a confidence gate fired (see ExitPolicy).
	ExitHop int

	story EmbeddedStory // the story ApplyGated embeds when given none
	solo  *solo         // ApplyGated's batch-of-one scratch
}

// posWeight returns the position-encoding factor l_kj for the j-th of J
// words (1-based) at embedding dimension k (0-based) of d:
//
//	l_kj = (1 - j/J) - ((k+1)/d)·(1 - 2j/J)
func posWeight(j, bigJ, k, d int) float32 {
	fj, fJ := float32(j), float32(bigJ)
	return (1 - fj/fJ) - (float32(k+1)/float32(d))*(1-2*fj/fJ)
}

// encodeInto accumulates the sentence embedding of word IDs from table
// emb plus the temporal vector into dst, with optional position
// encoding.
//
//mnnfast:hotpath
func (m *Model) encodeInto(emb *tensor.Matrix, words []int, temporal tensor.Vector, dst tensor.Vector) {
	dst.Zero()
	if m.Cfg.Position {
		bigJ := 0
		for _, w := range words {
			if w != 0 {
				bigJ++
			}
		}
		j := 0
		for _, w := range words {
			if w == 0 {
				continue
			}
			j++
			row := emb.Row(w)
			for k := range dst {
				dst[k] += posWeight(j, bigJ, k, m.Cfg.Dim) * row[k]
			}
		}
	} else {
		for _, w := range words {
			if w == 0 {
				continue
			}
			tensor.Axpy(1, emb.Row(w), dst)
		}
	}
	if temporal != nil {
		dst.AddInPlace(temporal)
	}
}

// temporalRow returns the temporal-encoding vector for sentence i of ns:
// the most recent sentence uses row 0, matching how stories are trimmed
// to the most recent MaxSent sentences.
func (m *Model) temporalRow(table *tensor.Matrix, i, ns int) tensor.Vector {
	return table.Row(ns - 1 - i)
}

// Apply runs the forward pass for one example and returns all
// intermediates, the embedded memories f.MemIn/f.MemOut that backprop
// reads included. The zero-skip threshold, if positive, zeroes
// attention weights below it before the weighted sum (the paper's
// Algorithm 1); the skipped mass is NOT renormalized, matching the
// paper's FPGA implementation which accumulates every exp into P_sum
// but skips only the weighted-sum work.
func (m *Model) Apply(ex Example, skipThreshold float32) *Forward {
	return m.ApplyGated(ex, skipThreshold, ExitPolicy{}, new(Forward), nil, nil)
}

// growVec returns a length-n vector reusing v's storage when possible.
func growVec(v tensor.Vector, n int) tensor.Vector {
	if cap(v) < n {
		return tensor.NewVector(n)
	}
	return v[:n]
}

// growMat reshapes mat to rows×cols, reusing its storage when possible.
func growMat(mat *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if mat == nil {
		return tensor.NewMatrix(rows, cols)
	}
	n := rows * cols
	if cap(mat.Data) < n {
		mat.Data = make([]float32, n)
	}
	mat.Data = mat.Data[:n]
	mat.Rows, mat.Cols = rows, cols
	return mat
}

// ApplyGated answers one question into the caller's Forward: the
// batched pass run as a batch of one, filling f.U, f.P, f.O, f.Logits
// and f.ExitHop in place. Its buffers are reshaped grow-only, so a
// serving loop that owns one Forward per goroutine allocates nothing
// at steady state; f must not be shared between concurrent calls.
//
// es, when non-nil, supplies the story's pre-embedded memories (es.NS
// must match the example's sentence count) and f.MemIn/f.MemOut are
// left untouched. A nil es embeds the story into a cache owned by f
// first — the training and evaluation path — and f.MemIn/f.MemOut
// alias it. ins, when non-nil, accumulates per-stage time and row
// counters. An armed policy gates each eligible hop on a confidence
// score (see ExitPolicy): a firing gate skips the remaining hops,
// leaving f.Logits = W·u of the exit state and f.ExitHop = the hops
// actually run. A zero policy is the ungated pass, bit for bit.
//
//mnnfast:hotpath
func (m *Model) ApplyGated(ex Example, skipThreshold float32, policy ExitPolicy, f *Forward, es *EmbeddedStory, ins *Instrumentation) *Forward {
	if es == nil {
		var mark time.Time
		var ev *trace.Events
		if ins != nil {
			mark, ev = time.Now(), ins.Ev
		}
		me := ev.Begin("embed-memory", -1)
		m.EmbedStoryInto(ex, &f.story)
		ev.End(me)
		if ins != nil {
			lap(&mark, &ins.EmbedNS)
		}
		es = &f.story
		f.MemIn, f.MemOut = es.MemIn, es.MemOut
	}
	s := f.solo
	if s == nil {
		//mnnfast:allow hotalloc the batch-of-one scratch is built once per Forward and cached
		s = new(solo)
		f.solo = s
	}
	s.ex[0], s.es[0], s.f[0] = ex, es, f
	s.bf.fs = s.f[:]
	m.forward(&s.bf, s.ex[:], skipThreshold, policy, s.es[:], ins)
	s.ex[0], s.es[0] = Example{}, nil // do not pin caller data between calls
	return f
}

// PredictGated returns the argmax answer class of ApplyGated; read
// f.ExitHop for the hops actually run.
//
//mnnfast:hotpath
func (m *Model) PredictGated(ex Example, skipThreshold float32, policy ExitPolicy, f *Forward, es *EmbeddedStory, ins *Instrumentation) int {
	return m.ApplyGated(ex, skipThreshold, policy, f, es, ins).Logits.ArgMax()
}

// exactBlockBytes sizes the row blocks of a multi-question exact hop:
// one block of M_IN or M_OUT rows (256 rows at Dim 24) stays in L1
// while every question of the group streams it.
const exactBlockBytes = 24 << 10

// attendExact is the exact attention of one hop for questions that
// share the memories in and out. For each question q it computes the
// input memory representation ps[q] = softmax(us[q]·M_INᵀ) — the raw
// inner products during linear-start training — and the output memory
// representation os[q] = Σᵢ ps[q][i]·m_iᴼᵁᵀ, skipping rows whose weight
// is below skip (zero-skipping, Algorithm 1). It returns the number of
// rows skipped over all questions. ps[q] must have length in.Rows and
// os[q] length Dim.
//
// One question costs two row-kernel calls over every row. A larger
// group walks the memory in blocks of exactBlockBytes and calls the
// kernels per question per block, so each block is read from memory
// once for the whole group (the batching argument of §4.1.2) while
// every question still sees its rows in ascending order. The row
// kernels are bit-identical to one Dot or Axpy per row, and splitting
// their row range changes no operation, so the result is the same bits
// at any group size.
//
//mnnfast:hotpath
func (m *Model) attendExact(in, out *tensor.Matrix, us, ps, os []tensor.Vector, skip float32) int {
	ns := in.Rows
	block := ns
	if len(us) > 1 {
		block = max(1, exactBlockBytes/(4*in.Cols))
	}
	for lo := 0; lo < ns; lo += block {
		hi := min(lo+block, ns)
		for q, u := range us {
			tensor.DotRows(in, lo, u, ps[q][lo:hi])
		}
	}
	for q, p := range ps {
		if !m.LinearAttention {
			tensor.Softmax(p)
		}
		os[q].Zero()
	}
	skipped := 0
	for lo := 0; lo < ns; lo += block {
		hi := min(lo+block, ns)
		for q, p := range ps {
			skipped += tensor.WeightedSumRows(p[lo:hi], out, lo, os[q], skip)
		}
	}
	return skipped
}

// PredictSkip returns the argmax answer class with zero-skipping applied
// at the given threshold.
func (m *Model) PredictSkip(ex Example, threshold float32) int {
	return m.Apply(ex, threshold).Logits.ArgMax()
}

// NumParams returns the total trainable parameter count.
func (m *Model) NumParams() int {
	n := len(m.B.Data) + len(m.W.Data)
	for _, e := range m.Emb {
		n += len(e.Data)
	}
	for k := range m.TimeIn {
		n += len(m.TimeIn[k].Data) + len(m.TimeOut[k].Data)
	}
	if m.H != nil {
		n += len(m.H.Data)
	}
	return n
}
