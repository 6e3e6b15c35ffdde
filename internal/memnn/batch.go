package memnn

import (
	"fmt"
	"time"

	"mnnfast/internal/sparse"
	"mnnfast/internal/tensor"
	"mnnfast/internal/trace"
)

// The forward pass: answer a batch of questions in one pass over the
// hops, sharing every memory-row read across the questions that attend
// to it. This is the serving-side realization of the paper's batching
// argument (§4.1.2): with B questions in flight, each block of
// M_IN/M_OUT rows is streamed from memory once per story group instead
// of once per question, so throughput stays flat as concurrency grows
// instead of degrading with redundant memory traffic. It is also the
// only forward pass: a single question (Apply, ApplyGated,
// PredictGated) runs it as a batch of one on the caller's Forward, and
// training embeds the story first and does the same.
//
// Bit-exactness contract: per question, the pass performs the float32
// operations of the End-To-End Memory Networks recurrence in one fixed
// order, whatever the batch around it. The exact hop runs through
// attendExact, whose row kernels (tensor.DotRows,
// tensor.WeightedSumRows) are bit-identical on every tier to one
// tensor.Dot per attention logit and one tensor.Axpy per surviving row
// in ascending order. A group of one question calls each kernel once
// over all rows; a larger group calls them per question per L1-sized
// row block, in ascending block order — which changes which rows are
// cache-resident, never an operation or its order. Softmax, state
// update and output projection are per-question calls. The reference
// pass in reference_test.go (plain per-row Dot/Axpy loops) and the
// sweeps in internal/equivtest pin this to the bit; any kernel change
// that breaks it (e.g. swapping Dot for the differently-associated
// Dot4) is a behavior change, not a refactor.

// BatchForward holds the per-question forward state and the grouping
// scratch of one pass. Buffers are reshaped grow-only and reused across
// calls of any shape; at steady state a serving loop that owns one
// BatchForward runs PredictBatchInstrumented without allocating. It
// must not be shared between concurrent calls.
type BatchForward struct {
	own []Forward  // PredictBatchInstrumented's per-question state
	fs  []*Forward // the pass's per-question state: views of own, or one caller's Forward

	// Grouping scratch: order is a permutation of the live questions
	// with questions that share an EmbeddedStory adjacent; groups holds
	// the end offset of each group within order.
	order   []int
	groups  []int
	grouped []bool

	// Early-exit state (see ExitPolicy): live holds the indices of
	// questions still hopping (ascending); full marks questions
	// committed to the full path by the fallback floor. gateP is the
	// gate softmax scratch. Each question's exit hop is its
	// Forward.ExitHop.
	live  []int
	full  []bool
	gateP tensor.Vector

	// Dispatch state of the current hop's group pass. Story groups are
	// the parallel unit: each touches only its own questions' state, so
	// groups run concurrently on the model's scheduler while every
	// per-question operation keeps its exact serial order — parallel
	// passes are bit-identical to serial ones. The closure is built once
	// per BatchForward so the steady-state dispatch allocates nothing.
	m       *Model
	stories []*EmbeddedStory
	hop     int
	skip    float32
	wskip   []int64 // per-worker skipped-row counters
	wrows   []int64 // per-worker considered-row counters
	wprobed []int64 // per-worker topk probed-row counters
	wcand   []int64 // per-worker topk surviving-candidate counters
	wgroup  []groupVecs
	gfn     func(worker, lo, hi int)
}

// solo is a Forward's scratch for answering one question as a batch of
// one: one-element views of the example, its story and the Forward.
type solo struct {
	bf BatchForward
	ex [1]Example
	es [1]*EmbeddedStory
	f  [1]*Forward
}

// groupVecs is one worker's gather of a story group's per-question
// U/P/O vectors for attendExact; the headers alias the questions'
// Forward buffers.
type groupVecs struct{ u, p, o []tensor.Vector }

// runGroup executes story group g's attention for the current hop as
// worker slot w: logits, softmax, and the zero-skipping weighted sum
// for every question of the group.
//
//mnnfast:hotpath
func (bf *BatchForward) runGroup(g, w int) {
	m, k := bf.m, bf.hop
	d := m.Cfg.Dim
	start := 0
	if g > 0 {
		start = bf.groups[g-1]
	}
	group := bf.order[start:bf.groups[g]]
	es := bf.stories[group[0]]
	in, outMem := es.MemIn[k], es.MemOut[k]
	ns := es.NS

	if idx := m.topkIndex(es, k); idx != nil {
		// Approximate attention: per question, probe the hop's IVF
		// index, softmax only the surviving candidates and gather only
		// their M_OUT rows in ascending order. f.P[k] becomes the
		// compact survivor distribution, which is what the attnmax gate
		// and the skip threshold then see. Nothing is shared between
		// questions, so the answer is the same bits at any batch
		// composition. Block sharing is the exact path's trick; the
		// probe already cuts the row traffic it exists to amortize.
		scr := sparse.GetProbeScratch()
		var skipped, probed, kept int64
		for _, q := range group {
			f := bf.fs[q]
			c, ast := idx.Attend(f.U[k], m.topk.K, m.topk.NProbe, scr)
			p := growVec(f.P[k], ast.Kept)
			f.P[k] = p
			copy(p, c.Weights)
			f.O[k] = growVec(f.O[k], d)
			skipped += int64(c.WeightedSumGather(outMem, bf.skip, f.O[k]))
			probed += int64(ast.Probed)
			kept += int64(ast.Kept)
		}
		sparse.PutProbeScratch(scr)
		bf.wskip[w] += skipped
		bf.wrows[w] += kept
		bf.wprobed[w] += probed
		bf.wcand[w] += kept
		return
	}

	// Exact attention: the group's U/P/O headers are gathered into this
	// worker's scratch and attendExact walks the shared memories block
	// by block, reading each block once for the whole group.
	gs := &bf.wgroup[w]
	gs.u, gs.p, gs.o = gs.u[:len(group)], gs.p[:len(group)], gs.o[:len(group)]
	for i, q := range group {
		f := bf.fs[q]
		f.P[k] = growVec(f.P[k], ns)
		f.O[k] = growVec(f.O[k], d)
		gs.u[i], gs.p[i], gs.o[i] = f.U[k], f.P[k], f.O[k]
	}
	bf.wskip[w] += int64(m.attendExact(in, outMem, gs.u, gs.p, gs.o, bf.skip))
	bf.wrows[w] += int64(ns) * int64(len(group))
}

// Logits returns question i's answer logits from the last batched pass,
// for equivalence testing and introspection.
func (bf *BatchForward) Logits(i int) tensor.Vector { return bf.fs[i].Logits }

// ExitHop returns the number of hops question i actually executed in
// the last batched pass: Cfg.Hops normally, fewer when the confidence
// gate shed it between hops.
func (bf *BatchForward) ExitHop(i int) int { return bf.fs[i].ExitHop }

// ensure reshapes the grouping, early-exit and worker scratch for a
// batch of n over w worker slots.
func (bf *BatchForward) ensure(n, w int) {
	if cap(bf.grouped) < n {
		bf.grouped = make([]bool, n)
		bf.live = make([]int, n)
		bf.full = make([]bool, n)
	}
	bf.grouped = bf.grouped[:n]
	bf.live = bf.live[:n]
	bf.full = bf.full[:n]
	for i := 0; i < n; i++ {
		bf.live[i] = i
		bf.full[i] = false
	}
	if cap(bf.wskip) < w {
		bf.wskip = make([]int64, w)
		bf.wrows = make([]int64, w)
		bf.wprobed = make([]int64, w)
		bf.wcand = make([]int64, w)
	}
	bf.wskip = bf.wskip[:w]
	bf.wrows = bf.wrows[:w]
	bf.wprobed = bf.wprobed[:w]
	bf.wcand = bf.wcand[:w]
	if cap(bf.wgroup) < w {
		bf.wgroup = make([]groupVecs, w)
	}
	bf.wgroup = bf.wgroup[:w]
	for i := range bf.wgroup {
		if gs := &bf.wgroup[i]; cap(gs.u) < n {
			gs.u = make([]tensor.Vector, n)
			gs.p = make([]tensor.Vector, n)
			gs.o = make([]tensor.Vector, n)
		}
	}
	for i := 0; i < w; i++ {
		bf.wskip[i], bf.wrows[i] = 0, 0
		bf.wprobed[i], bf.wcand[i] = 0, 0
	}
	if bf.gfn == nil {
		//mnnfast:allow hotalloc gfn is built once per BatchForward and cached; every later ensure reuses it
		bf.gfn = func(worker, lo, hi int) {
			for g := lo; g < hi; g++ {
				bf.runGroup(g, worker)
			}
		}
	}
}

// group orders the live questions so those sharing an EmbeddedStory
// are adjacent (pointer identity — two sessions never share one
// cache). It is re-run after the gate sheds questions between hops, so
// the remaining hops dispatch over compacted story groups.
//
//mnnfast:hotpath allow=append the order/groups slices grow-only toward MaxBatch and then stay put
func (bf *BatchForward) group(stories []*EmbeddedStory, live []int) {
	bf.order = bf.order[:0]
	bf.groups = bf.groups[:0]
	for _, q := range live {
		bf.grouped[q] = false
	}
	for i, q := range live {
		if bf.grouped[q] {
			continue
		}
		bf.order = append(bf.order, q)
		for _, r := range live[i+1:] {
			if !bf.grouped[r] && stories[r] == stories[q] {
				bf.grouped[r] = true
				bf.order = append(bf.order, r)
			}
		}
		bf.groups = append(bf.groups, len(bf.order))
	}
}

// PredictBatchInstrumented answers every question in exs, writing the
// argmax answer class of question i into out[i]. stories[i] supplies
// question i's pre-embedded memories (see EmbedStoryInto); every entry
// must be non-nil with NS matching its example. Questions sharing an
// EmbeddedStory (pointer identity) share one pass over its rows. ins,
// when non-nil, accumulates per-stage time and skip counters over the
// whole batch. With the confidence gate armed (see ExitPolicy; the zero
// policy is the ungated pass, bit for bit), questions whose confidence
// clears the threshold after a hop are shed between hops: they answer
// immediately from the gate's W·u projection, and the remaining hops
// dispatch over story groups rebuilt from the shrunken live set — the
// batch's attention cost tracks the questions still hopping, not the
// flush size. Read per-question logits and exit hops with
// BatchForward.Logits and BatchForward.ExitHop.
//
//mnnfast:hotpath
func (m *Model) PredictBatchInstrumented(exs []Example, skipThreshold float32, policy ExitPolicy, stories []*EmbeddedStory, bf *BatchForward, ins *Instrumentation, out []int) {
	n := len(exs)
	if len(stories) != n || len(out) != n {
		panic(fmt.Sprintf("memnn: PredictBatch length mismatch exs=%d stories=%d out=%d", n, len(stories), len(out)))
	}
	if n == 0 {
		return
	}
	if cap(bf.own) < n {
		own := make([]Forward, n)
		copy(own, bf.own)
		bf.own, bf.fs = own, make([]*Forward, n)
	}
	bf.fs = bf.fs[:n]
	for q := range bf.fs {
		bf.fs[q] = &bf.own[q]
	}
	m.forward(bf, exs, skipThreshold, policy, stories, ins)
	for q, f := range bf.fs {
		out[q] = f.Logits.ArgMax()
	}
}

// forward runs the pass for the questions exs over their stories,
// filling bf.fs[q] (one Forward per question, set by the caller) with
// question q's states, attention weights, responses, logits and exit
// hop. Every entry point answers through it (see the contract above).
//
//mnnfast:hotpath
func (m *Model) forward(bf *BatchForward, exs []Example, skipThreshold float32, policy ExitPolicy, stories []*EmbeddedStory, ins *Instrumentation) {
	for i, es := range stories {
		if es == nil {
			panic(fmt.Sprintf("memnn: PredictBatch question %d has nil EmbeddedStory", i))
		}
		if es.NS != len(exs[i].Sentences) {
			panic(fmt.Sprintf("memnn: EmbeddedStory built for %d sentences applied to story of %d", es.NS, len(exs[i].Sentences)))
		}
	}
	hops, d := m.Cfg.Hops, m.Cfg.Dim
	bf.ensure(len(exs), m.sch.Workers())
	live := bf.live
	bf.group(stories, live)
	bf.m, bf.stories, bf.skip = m, stories, skipThreshold
	gate, minH := policy.active(hops), policy.minHops()

	var mark time.Time
	var ev *trace.Events
	if ins != nil {
		mark = time.Now()
		ev = ins.Ev
	}

	// Question embeddings (per question — the B-table gathers touch
	// disjoint rows, nothing to share).
	qe := ev.Begin("embed-question", -1)
	for q, f := range bf.fs {
		f.NS = stories[q].NS
		f.ExitHop = hops
		if cap(f.U) < hops+1 {
			f.U = make([]tensor.Vector, hops+1)
		}
		f.U = f.U[:hops+1]
		if cap(f.P) < hops {
			f.P = make([]tensor.Vector, hops)
			f.O = make([]tensor.Vector, hops)
		}
		f.P, f.O = f.P[:hops], f.O[:hops]
		f.U[0] = growVec(f.U[0], d)
		m.encodeInto(m.B, exs[q].Question, nil, f.U[0])
	}
	ev.End(qe)
	if ins != nil {
		lap(&mark, &ins.EmbedNS)
	}

	for k := 0; k < hops; k++ {
		he := ev.Begin("hop", -1)

		// Story groups are independent within a hop (disjoint question
		// state), so they are the scheduler's work items: zero-skipping
		// makes group costs uneven, and workers that finish their groups
		// steal the stragglers' — see runGroup for the per-group body.
		bf.hop = k
		m.sch.RunEvents(ev, he, 0, len(bf.groups), 1, bf.gfn)

		// State update u' = u + o (adjacent) or u' = H·u + o
		// (layer-wise), per question.
		for _, q := range live {
			f := bf.fs[q]
			f.U[k+1] = growVec(f.U[k+1], d)
			if m.Cfg.Tying == TyingLayerwise {
				tensor.MatVec(nil, m.H, f.U[k], f.U[k+1])
			} else {
				copy(f.U[k+1], f.U[k])
			}
			f.U[k+1].AddInPlace(f.O[k])
		}
		// The per-worker counters fold deterministically: each group's
		// counts are fixed, and integer addition is order-free.
		skipped, rows := take(bf.wskip), take(bf.wrows)
		probed, kept := take(bf.wprobed), take(bf.wcand)
		ev.Annotate(he, "hop", int64(k))
		ev.Annotate(he, "skipped", skipped)
		ev.Annotate(he, "rows", rows)
		if probed > 0 {
			ev.Annotate(he, "topk_probed", probed)
			ev.Annotate(he, "topk_kept", kept)
		}
		ev.End(he)
		if ins != nil {
			ins.SkippedRows += skipped
			ins.TotalRows += rows
			ins.ProbedRows += probed
			ins.CandRows += kept
			lap(&mark, &ins.AttentionNS)
		}

		// Confidence gate: score every live, uncommitted question and
		// shed the ones that clear the threshold — their answer is the
		// gate's W·u projection, the final projection's MatVec. The
		// remaining hops then run on story groups rebuilt from the
		// shrunken live set.
		if h := k + 1; gate && h >= minH && h < hops {
			ge := ev.Begin("gate", -1)
			shed := m.gateBatch(bf, live, policy, h)
			ev.Annotate(ge, "hop", int64(k))
			ev.Annotate(ge, "shed", int64(shed))
			ev.End(ge)
			if ins != nil {
				lap(&mark, &ins.GateNS)
			}
			if shed > 0 {
				w := 0
				for _, q := range live {
					if bf.fs[q].ExitHop == hops {
						live[w] = q
						w++
					}
				}
				live = live[:w]
				if len(live) == 0 {
					break
				}
				bf.group(stories, live)
			}
		}
	}
	bf.m, bf.stories = nil, nil // do not pin caller data between batches

	// Output projection. Only the questions that ran all hops are
	// projected here; shed questions already hold their exit logits
	// from the gate.
	oe := ev.Begin("output", -1)
	for _, q := range live {
		f := bf.fs[q]
		f.Logits = growVec(f.Logits, m.Cfg.Answers)
		tensor.MatVec(nil, m.W, f.U[hops], f.Logits)
	}
	ev.End(oe)
	if ins != nil {
		lap(&mark, &ins.OutputNS)
	}
}

// gateBatch scores every live, uncommitted question after hop h (state
// U[h], attention P[h-1]) and marks the ones clearing the policy
// threshold as exited (ExitHop = h), leaving their Logits at the
// gate's W·u projection. A confidence below the fallback floor commits
// the question to the full path instead (no further gate projections).
// Returns the number of questions shed.
//
//mnnfast:hotpath
func (m *Model) gateBatch(bf *BatchForward, live []int, policy ExitPolicy, h int) int {
	k, answers := h-1, m.Cfg.Answers
	if policy.Metric != ExitAttnMax {
		for _, q := range live {
			if bf.full[q] {
				continue
			}
			f := bf.fs[q]
			f.Logits = growVec(f.Logits, answers)
			tensor.MatVec(nil, m.W, f.U[h], f.Logits)
		}
	}
	fb := policy.fallback()
	shed := 0
	for _, q := range live {
		if bf.full[q] {
			continue
		}
		f := bf.fs[q]
		var conf float32
		if policy.Metric == ExitAttnMax {
			conf = f.P[k].Max()
		} else {
			bf.gateP = growVec(bf.gateP, answers)
			copy(bf.gateP, f.Logits)
			tensor.Softmax(bf.gateP)
			conf = answerConfidence(policy.Metric, bf.gateP)
		}
		if conf >= policy.Threshold {
			if policy.Metric == ExitAttnMax {
				f.Logits = growVec(f.Logits, answers)
				tensor.MatVec(nil, m.W, f.U[h], f.Logits)
			}
			f.ExitHop = h
			shed++
		} else if fb > 0 && conf < fb {
			bf.full[q] = true
		}
	}
	return shed
}

// take returns the sum of a per-worker counter slice and zeroes it.
//
//mnnfast:hotpath
func take(a []int64) int64 {
	var s int64
	for i, v := range a {
		s += v
		a[i] = 0
	}
	return s
}
