package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mnnfast/internal/core"
	"mnnfast/internal/memnn"
	"mnnfast/internal/sparse"
	"mnnfast/internal/tensor"
)

// sink keeps timed calls from being optimized away.
var sink float32

// timer times direct calls into one layer and keeps one span per timed
// batch of calls.
type timer struct {
	epoch time.Time
	spans []span
}

// perCall runs fn in batches of at least minBatch and returns the
// median per-call time in ns over five batches.
func (t *timer) perCall(name string, minBatch time.Duration, fn func()) float64 {
	fn() // warm caches and pooled scratch
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(start) >= minBatch/4 || n >= 1<<24 {
			break
		}
		n *= 4
	}
	var per []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		end := time.Now()
		per = append(per, float64(end.Sub(start).Nanoseconds())/float64(n))
		t.spans = append(t.spans, span{name: name, start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds(), parent: -1})
	}
	return median(per)
}

// layerTimes times the public functions of memnn, sparse, core and
// tensor directly, on the workload's own stories and questions, with
// the oracle's models (loaded from the served model file).
func layerTimes(t *timer, o *oracle, m map[string]float64) error {
	const batch = 40 * time.Millisecond
	in := o.in
	model := o.exact

	// The first sessions' set-up stories, embedded.
	nst := min(len(in.stories), 8)
	stories := make([]*memnn.EmbeddedStory, nst)
	exs := make([]memnn.Example, nst)
	for s := 0; s < nst; s++ {
		ex, err := o.vectorize(in.stories[s])
		if err != nil {
			return fmt.Errorf("layers: %w", err)
		}
		exs[s], stories[s] = ex, new(memnn.EmbeddedStory)
		model.EmbedStoryInto(ex, stories[s])
	}
	var questions [][]int
	for p := range people {
		q, err := o.corpus.Vocab.EncodeStrict([]string{"where", "is", people[p]})
		if err != nil {
			return fmt.Errorf("layers: question: %w", err)
		}
		questions = append(questions, q)
	}
	ask := func(s, i int) memnn.Example {
		ex := exs[s]
		ex.Question = questions[in.askable[s][i%len(in.askable[s])]]
		return ex
	}

	var es memnn.EmbeddedStory
	m["memnn.embed_story_ms"] = t.perCall("memnn.EmbedStoryInto", batch, func() { model.EmbedStoryInto(exs[0], &es) }) / 1e6

	var f memnn.Forward
	qi := 0
	m["memnn.predict_us"] = t.perCall("memnn.PredictGated", batch, func() {
		qi++
		sink += float32(model.PredictGated(ask(0, qi), 0, memnn.ExitPolicy{}, &f, stories[0], nil))
	}) / 1e3

	var bf memnn.BatchForward
	for _, size := range []int{2, 8} {
		bex := make([]memnn.Example, size)
		bst := make([]*memnn.EmbeddedStory, size)
		out := make([]int, size)
		for i := range bex {
			bex[i], bst[i] = ask(i%nst, i), stories[i%nst]
		}
		var ins memnn.Instrumentation
		name := fmt.Sprintf("memnn.predict_batch%d_us_per_answer", size)
		m[name] = t.perCall("memnn.PredictBatchInstrumented", batch, func() {
			ins.Reset()
			model.PredictBatchInstrumented(bex, 0, memnn.ExitPolicy{}, bst, &bf, &ins, out)
		}) / 1e3 / float64(size)
	}

	// Top-k: the served configuration, on a model whose floor admits
	// even short stories so every workload measures the index.
	tk := o.served
	if tk == model {
		var err error
		if tk, _, err = loadModel(o.file); err != nil {
			return fmt.Errorf("layers: %w", err)
		}
		cfg := servedTopK
		cfg.MinRows = 1
		tk.SetTopK(cfg)
	}
	var tes memnn.EmbeddedStory
	tk.EmbedStoryInto(exs[0], &tes)
	m["sparse.index_build_ms"] = t.perCall("memnn.BuildStoryIndex", batch, func() { tk.BuildStoryIndex(&tes) }) / 1e6
	if !tk.BuildStoryIndex(&tes) {
		return fmt.Errorf("layers: no top-k index built over %d rows", tes.NS)
	}
	// Question states entering hop 1 come from exact forward passes.
	var us []tensor.Vector
	for i := range in.askable[0] {
		model.PredictGated(ask(0, i), 0, memnn.ExitPolicy{}, &f, stories[0], nil)
		us = append(us, f.U[0].Clone())
	}
	idx := tes.Index[0]
	scr := sparse.GetProbeScratch()
	m["sparse.attend_us"] = t.perCall("sparse.TopKIndex.Attend", batch, func() {
		qi++
		c, _ := idx.Attend(us[qi%len(us)], servedTopK.K, servedTopK.NProbe, scr)
		sink += c.Weights[0]
	}) / 1e3
	sparse.PutProbeScratch(scr)

	// core engines over hop 1's M_IN / M_OUT of the first story.
	mem, err := core.NewMemory(stories[0].MemIn[0], stories[0].MemOut[0])
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	o1 := tensor.NewVector(mem.Dim())
	base, col := core.NewBaseline(mem, core.Options{}), core.NewColumn(mem, core.Options{})
	m["core.baseline_infer_us"] = t.perCall("core.Baseline.Infer", batch, func() {
		qi++
		base.Infer(us[qi%len(us)], o1)
	}) / 1e3
	m["core.column_infer_us"] = t.perCall("core.Column.Infer", batch, func() {
		qi++
		col.Infer(us[qi%len(us)], o1)
	}) / 1e3
	m["core.column_over_baseline"] = m["core.column_infer_us"] / m["core.baseline_infer_us"]

	// tensor kernels at the served Dim and at the paper's scale.
	rng := rand.New(rand.NewSource(seedFor(in.seed, "kernels", 0)))
	for _, ed := range []int{24, 128} {
		v := make([]tensor.Vector, 5)
		for i := range v {
			v[i] = tensor.NewVector(ed)
			for j := range v[i] {
				v[i][j] = float32(rng.NormFloat64())
			}
		}
		y := tensor.NewVector(ed)
		sfx := fmt.Sprintf(".ed%d", ed)
		m["tensor.dot_ns"+sfx] = t.perCall("tensor.Dot", batch, func() { sink += tensor.Dot(v[0], v[1]) })
		m["tensor.axpy_ns"+sfx] = t.perCall("tensor.Axpy", batch, func() { tensor.Axpy(1e-3, v[0], y) })
		m["tensor.dot4_ns"+sfx] = t.perCall("tensor.Dot4", batch, func() {
			a, b, c, d := tensor.Dot4(v[0], v[1], v[2], v[3], v[4])
			sink += a + b + c + d
		})
		m["tensor.axpy4_ns"+sfx] = t.perCall("tensor.Axpy4", batch, func() {
			tensor.Axpy4(1e-3, 2e-3, 3e-3, 4e-3, v[1], v[2], v[3], v[4], y)
		})
		m["tensor.expinto_ns_per_elem"+sfx] = t.perCall("tensor.ExpInto", batch, func() {
			sink += tensor.ExpInto(y, v[0], 3)
		}) / float64(ed)
	}
	return nil
}

// spanSelf returns each span name's total self time in ns over the
// span lists: its duration minus the part of it that its children
// cover (their union, since concurrent children overlap). Parent
// indexes refer to the span's own list.
func spanSelf(lists ...[]span) map[string]int64 {
	out := map[string]int64{}
	for _, spans := range lists {
		kids := make([][]span, len(spans))
		for _, s := range spans {
			if s.parent >= 0 {
				kids[s.parent] = append(kids[s.parent], s)
			}
		}
		for i, s := range spans {
			out[s.name] += s.end - s.start - covered(kids[i])
		}
	}
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total, end int64
	for i, s := range spans {
		switch {
		case i == 0 || s.start > end:
			total += s.end - s.start
			end = s.end
		case s.end > end:
			total += s.end - end
			end = s.end
		}
	}
	return total
}
