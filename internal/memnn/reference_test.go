package memnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mnnfast/internal/sparse"
	"mnnfast/internal/tensor"
)

// refPass is one question's forward state as the reference computes it.
type refPass struct {
	u, p, o []tensor.Vector
	logits  tensor.Vector
}

// referenceForward answers one question over a pre-embedded story with
// the End-To-End Memory Networks recurrence written plainly, sharing no
// code with the served pass beyond the kernels themselves: one
// tensor.Dot per attention logit, tensor.Softmax (none under linear
// attention), one tensor.Axpy per row in ascending order skipping rows
// with p < skip, the state update u' = u + o or H·u + o, and the
// answer projection W·u. A hop with a built top-k index calls
// TopKIndex.Attend and Compacted.WeightedSumGather directly instead.
func referenceForward(m *Model, ex Example, es *EmbeddedStory, skip float32) refPass {
	d := m.Cfg.Dim
	u := tensor.NewVector(d)
	m.encodeInto(m.B, ex.Question, nil, u)
	r := refPass{u: []tensor.Vector{u}}
	for k := 0; k < m.Cfg.Hops; k++ {
		in, out := es.MemIn[k], es.MemOut[k]
		o := tensor.NewVector(d)
		var p tensor.Vector
		if m.TopK().Enabled && k < len(es.Index) {
			scr := new(sparse.ProbeScratch)
			c, _ := es.Index[k].Attend(u, m.TopK().K, m.TopK().NProbe, scr)
			p = append(tensor.Vector(nil), c.Weights...)
			c.WeightedSumGather(out, skip, o)
		} else {
			p = tensor.NewVector(in.Rows)
			for i := range p {
				p[i] = tensor.Dot(in.Row(i), u)
			}
			if !m.LinearAttention {
				tensor.Softmax(p)
			}
			for i, pi := range p {
				if skip > 0 && pi < skip {
					continue
				}
				tensor.Axpy(pi, out.Row(i), o)
			}
		}
		next := tensor.NewVector(d)
		if m.Cfg.Tying == TyingLayerwise {
			tensor.MatVec(nil, m.H, u, next)
		} else {
			copy(next, u)
		}
		next.AddInPlace(o)
		r.p, r.o, r.u = append(r.p, p), append(r.o, o), append(r.u, next)
		u = next
	}
	r.logits = tensor.NewVector(m.Cfg.Answers)
	tensor.MatVec(nil, m.W, u, r.logits)
	return r
}

// sameBits reports the first element where got and want differ in
// their bits, or "" when they are identical.
func sameBits(got, want tensor.Vector) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, reference %d", len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Sprintf("[%d] = %x, reference %x", i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	return ""
}

// checkAgainstReference compares every state, attention vector,
// response and logit of f with the reference pass.
func checkAgainstReference(t *testing.T, name string, f *Forward, want refPass) {
	t.Helper()
	if f.ExitHop != len(want.p) {
		t.Fatalf("%s: exit hop %d, want %d", name, f.ExitHop, len(want.p))
	}
	for k := range want.u {
		if msg := sameBits(f.U[k], want.u[k]); msg != "" {
			t.Fatalf("%s: U[%d]%s", name, k, msg)
		}
	}
	for k := range want.p {
		if msg := sameBits(f.P[k], want.p[k]); msg != "" {
			t.Fatalf("%s: P[%d]%s", name, k, msg)
		}
		if msg := sameBits(f.O[k], want.o[k]); msg != "" {
			t.Fatalf("%s: O[%d]%s", name, k, msg)
		}
	}
	if msg := sameBits(f.Logits, want.logits); msg != "" {
		t.Fatalf("%s: logits%s", name, msg)
	}
}

// referenceCase builds a model and seven questions over three stories
// of 3, 300 and 600 sentences: story groups of three, two and two
// questions, the longer stories spanning several exact-hop row blocks.
func referenceCase(t *testing.T, rng *rand.Rand, cfg Config) (*Model, []Example, []*EmbeddedStory) {
	t.Helper()
	model, err := NewModel(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	var exs []Example
	var stories []*EmbeddedStory
	for _, st := range []struct{ ns, questions int }{{600, 3}, {3, 2}, {300, 2}} {
		sentences := make([][]int, st.ns)
		for j := range sentences {
			sentences[j] = randWords(rng, cfg.Vocab, 6)
		}
		es := new(EmbeddedStory)
		model.EmbedStoryInto(Example{Sentences: sentences}, es)
		for q := 0; q < st.questions; q++ {
			exs = append(exs, Example{Sentences: sentences, Question: randWords(rng, cfg.Vocab, 5)})
			stories = append(stories, es)
		}
	}
	return model, exs, stories
}

// checkModelAgainstReference runs every question of the case as a
// batch of one (ApplyGated on a cached story), through the training
// path (Apply, which embeds the story itself), and as one batch
// (PredictBatchInstrumented), and pins each to the reference.
func checkModelAgainstReference(t *testing.T, name string, model *Model, exs []Example, stories []*EmbeddedStory, skip float32, uncached bool) {
	t.Helper()
	want := make([]refPass, len(exs))
	var f Forward
	for q, ex := range exs {
		want[q] = referenceForward(model, ex, stories[q], skip)
		model.ApplyGated(ex, skip, ExitPolicy{}, &f, stories[q], nil)
		checkAgainstReference(t, fmt.Sprintf("%s q %d single", name, q), &f, want[q])
		if uncached {
			fa := model.Apply(ex, skip)
			checkAgainstReference(t, fmt.Sprintf("%s q %d Apply", name, q), fa, want[q])
			for k := range fa.MemIn {
				if msg := sameBits(fa.MemIn[k].Data, stories[q].MemIn[k].Data) + sameBits(fa.MemOut[k].Data, stories[q].MemOut[k].Data); msg != "" {
					t.Fatalf("%s q %d Apply: hop %d memories %s", name, q, k, msg)
				}
			}
		}
	}
	var bf BatchForward
	out := make([]int, len(exs))
	model.PredictBatchInstrumented(exs, skip, ExitPolicy{}, stories, &bf, nil, out)
	for q := range exs {
		checkAgainstReference(t, fmt.Sprintf("%s q %d batched", name, q), bf.fs[q], want[q])
		if out[q] != want[q].logits.ArgMax() {
			t.Fatalf("%s q %d batched: answer %d, reference %d", name, q, out[q], want[q].logits.ArgMax())
		}
	}
}

// TestForwardMatchesReference pins the forward pass — as a batch of
// one, on the training path and as a batch of many — to the plain
// reference, bit for bit, on every kernel tier: adjacent and
// layer-wise tying, bag-of-words and position encoding, zero-skipping
// off and on, softmax and linear attention.
func TestForwardMatchesReference(t *testing.T) {
	prev := tensor.KernelTier()
	defer func() {
		if err := tensor.SetKernelTier(prev); err != nil {
			t.Error(err)
		}
	}()
	for _, tier := range tensor.KernelTiers() {
		if err := tensor.SetKernelTier(tier); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(61))
		for _, tying := range []Tying{TyingAdjacent, TyingLayerwise} {
			for _, position := range []bool{false, true} {
				cfg := Config{Dim: 24, Hops: 3, Vocab: 30, Answers: 7, MaxSent: 600, Position: position, Tying: tying}
				model, exs, stories := referenceCase(t, rng, cfg)
				for _, linear := range []bool{false, true} {
					model.LinearAttention = linear
					for _, skip := range []float32{0, 2e-3} {
						name := fmt.Sprintf("%s %s pos=%v linear=%v skip=%v", tier, tying, position, linear, skip)
						checkModelAgainstReference(t, name, model, exs, stories, skip, true)
					}
				}
			}
		}
	}
}

// TestTopKForwardMatchesReference pins top-k hops to the reference's
// direct Attend/WeightedSumGather calls on every kernel tier: a full
// probe that keeps every row, and a narrow probe with a top-k cut.
func TestTopKForwardMatchesReference(t *testing.T) {
	prev := tensor.KernelTier()
	defer func() {
		if err := tensor.SetKernelTier(prev); err != nil {
			t.Error(err)
		}
	}()
	for _, tier := range tensor.KernelTiers() {
		if err := tensor.SetKernelTier(tier); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(62))
		for _, tying := range []Tying{TyingAdjacent, TyingLayerwise} {
			cfg := Config{Dim: 24, Hops: 2, Vocab: 30, Answers: 7, MaxSent: 600, Tying: tying}
			model, exs, stories := referenceCase(t, rng, cfg)
			for _, topk := range []TopKConfig{
				{Enabled: true, K: 0, NProbe: 1 << 20, MinRows: 1},
				{Enabled: true, K: 8, NProbe: 2, MinRows: 1},
			} {
				model.SetTopK(topk)
				for _, es := range stories {
					model.BuildStoryIndex(es)
				}
				for _, skip := range []float32{0, 2e-3} {
					name := fmt.Sprintf("%s %s topk K=%d nprobe=%d skip=%v", tier, tying, topk.K, topk.NProbe, skip)
					checkModelAgainstReference(t, name, model, exs, stories, skip, false)
				}
			}
		}
	}
}
