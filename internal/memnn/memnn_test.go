package memnn

import (
	"math"
	"math/rand"
	"testing"

	"mnnfast/internal/babi"
	"mnnfast/internal/tensor"
)

func smallCorpus(t testing.TB, task babi.Task, stories, storyLen int, seed int64) *Corpus {
	t.Helper()
	opt := babi.GenOptions{Stories: stories, StoryLen: storyLen, People: 3, Locations: 3}
	d := babi.Generate(task, opt, rand.New(rand.NewSource(seed)))
	train, test := d.Split(0.8)
	return BuildCorpus(train, test, 0)
}

func newTestModel(t testing.TB, c *Corpus, hops int, seed int64) *Model {
	t.Helper()
	m, err := NewModel(Config{
		Dim:     16,
		Hops:    hops,
		Vocab:   c.Vocab.Size(),
		Answers: len(c.Answers),
		MaxSent: c.MaxSent,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Dim: 0, Hops: 1, Vocab: 1, Answers: 1, MaxSent: 1},
		{Dim: 1, Hops: 0, Vocab: 1, Answers: 1, MaxSent: 1},
		{Dim: 1, Hops: 1, Vocab: 0, Answers: 1, MaxSent: 1},
		{Dim: 1, Hops: 1, Vocab: 1, Answers: 0, MaxSent: 1},
		{Dim: 1, Hops: 1, Vocab: 1, Answers: 1, MaxSent: 0},
	}
	for i, cfg := range bad {
		if _, err := NewModel(cfg, rand.New(rand.NewSource(0))); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestBuildCorpusSharesVocabulary(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 50, 8, 1)
	if len(c.Train) != 40 || len(c.Test) != 10 {
		t.Fatalf("split sizes %d/%d", len(c.Train), len(c.Test))
	}
	if c.Vocab.Size() < 5 {
		t.Errorf("vocabulary suspiciously small: %d", c.Vocab.Size())
	}
	for _, ex := range c.Test {
		if ex.Answer < 0 || ex.Answer >= len(c.Answers) {
			t.Fatalf("test answer class %d out of range", ex.Answer)
		}
	}
}

func TestBuildCorpusTrimsLongStories(t *testing.T) {
	d := &babi.Dataset{Task: "t", Stories: []babi.Story{{
		Sentences: [][]string{{"a"}, {"b"}, {"c"}, {"d"}},
		Question:  []string{"q"},
		Answer:    "x",
		Support:   []int{0, 3},
	}}}
	c := BuildCorpus(d, &babi.Dataset{Task: "t"}, 2)
	ex := c.Train[0]
	if len(ex.Sentences) != 2 {
		t.Fatalf("trimmed story has %d sentences, want 2", len(ex.Sentences))
	}
	// Support index 3 survives remapped to 1; index 0 is dropped.
	if len(ex.Support) != 1 || ex.Support[0] != 1 {
		t.Errorf("remapped support = %v, want [1]", ex.Support)
	}
}

func TestVectorizeStoryStrict(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 20, 6, 2)
	d := babi.Generate(babi.TaskSingleFact, babi.GenOptions{Stories: 1, StoryLen: 6, People: 3, Locations: 3}, rand.New(rand.NewSource(2)))
	if _, err := c.VectorizeStory(d.Stories[0]); err != nil {
		t.Errorf("known-vocabulary story rejected: %v", err)
	}
	bad := babi.Story{Sentences: [][]string{{"xylophone"}}, Question: []string{"where"}}
	if _, err := c.VectorizeStory(bad); err == nil {
		t.Error("unknown word accepted by VectorizeStory")
	}
}

func TestApplyShapes(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 20, 6, 3)
	m := newTestModel(t, c, 3, 4)
	ex := c.Train[0]
	f := m.Apply(ex, 0)
	if len(f.U) != 4 || len(f.P) != 3 || len(f.O) != 3 {
		t.Fatalf("forward shapes: U=%d P=%d O=%d", len(f.U), len(f.P), len(f.O))
	}
	if len(f.Logits) != len(c.Answers) {
		t.Errorf("logit length %d != answers %d", len(f.Logits), len(c.Answers))
	}
	for k, p := range f.P {
		if got := p.Sum(); math.Abs(float64(got)-1) > 1e-4 {
			t.Errorf("hop %d attention sums to %v", k, got)
		}
	}
}

func TestApplyEmptyStoryPanics(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 10, 6, 5)
	m := newTestModel(t, c, 1, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("Apply on empty story did not panic")
		}
	}()
	m.Apply(Example{Question: []int{1}, Answer: 0}, 0)
}

func TestApplySkipZeroMatchesBaseline(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 30, 10, 6)
	m := newTestModel(t, c, 2, 6)
	for _, ex := range c.Test {
		a := m.Apply(ex, 0)
		b := m.Apply(ex, -1) // negative threshold also means "no skip"
		if tensor.MaxAbsDiff(a.Logits, b.Logits) > 1e-6 {
			t.Fatal("non-positive thresholds must not change the forward pass")
		}
	}
}

func TestApplySkipOneSkipsEverything(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 10, 10, 7)
	m := newTestModel(t, c, 1, 7)
	ex := c.Train[0]
	f := m.Apply(ex, 1.1) // threshold above any probability
	if f.O[0].Norm2() != 0 {
		t.Errorf("threshold > 1 should skip all weighted-sum rows, |o| = %v", f.O[0].Norm2())
	}
}

func TestNumParams(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 10, 6, 8)
	m := newTestModel(t, c, 2, 8)
	v, d, ns := c.Vocab.Size(), 16, c.MaxSent
	want := v*d + // B
		3*v*d + // Emb (hops+1)
		2*2*ns*d + // TimeIn + TimeOut
		len(c.Answers)*d // W
	if got := m.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
}

// TestGradientCheck verifies the analytic backward pass against central
// finite differences on a tiny model.
func TestGradientCheck(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 10, 4, 9)
	m, err := NewModel(Config{
		Dim: 5, Hops: 2, Vocab: c.Vocab.Size(), Answers: len(c.Answers), MaxSent: c.MaxSent,
	}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	ex := c.Train[0]

	g := newGrads(m)
	g.zero()
	m.backward(ex, m.Apply(ex, 0), g)

	lossOf := func() float64 {
		f := m.Apply(ex, 0)
		probs := f.Logits.Clone()
		tensor.Softmax(probs)
		return -math.Log(math.Max(float64(probs[ex.Answer]), 1e-30))
	}

	type paramPair struct {
		name  string
		param *tensor.Matrix
		grad  *tensor.Matrix
	}
	pairs := []paramPair{
		{"B", m.B, g.b},
		{"W", m.W, g.w},
		{"Emb0", m.Emb[0], g.emb[0]},
		{"Emb1", m.Emb[1], g.emb[1]},
		{"Emb2", m.Emb[2], g.emb[2]},
		{"TimeIn0", m.TimeIn[0], g.timeIn[0]},
		{"TimeOut1", m.TimeOut[1], g.timeOut[1]},
	}
	// eps must be large enough that the central difference rises above
	// float32 rounding of the ~O(1) loss; gradients below the cutoff are
	// unmeasurable at that precision and are skipped.
	const eps = 1e-2
	const cutoff = 2e-3
	rng := rand.New(rand.NewSource(10))
	for _, pp := range pairs {
		checked := 0
		for try := 0; try < 400 && checked < 8; try++ {
			i := rng.Intn(len(pp.param.Data))
			analytic := float64(pp.grad.Data[i])
			orig := pp.param.Data[i]
			pp.param.Data[i] = orig + eps
			up := lossOf()
			pp.param.Data[i] = orig - eps
			down := lossOf()
			pp.param.Data[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric) < cutoff || math.Abs(analytic) < cutoff {
				continue // below float32 finite-difference resolution
			}
			checked++
			rel := math.Abs(analytic-numeric) / math.Abs(numeric)
			if rel > 0.1 {
				t.Errorf("%s[%d]: analytic %g vs numeric %g (rel %g)", pp.name, i, analytic, numeric, rel)
			}
		}
		if checked == 0 {
			t.Logf("%s: no informative entries sampled", pp.name)
		}
	}
}

func TestTrainReducesLoss(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 60, 6, 11)
	m := newTestModel(t, c, 2, 11)
	opt := DefaultTrainOptions()
	opt.Epochs = 10
	res, err := m.Train(c.Train, opt)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.EpochLoss[0], res.EpochLoss[len(res.EpochLoss)-1]
	if last >= first {
		t.Errorf("loss did not decrease: %v → %v", first, last)
	}
}

func TestTrainSingleFactAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	c := smallCorpus(t, babi.TaskSingleFact, 300, 8, 12)
	m := newTestModel(t, c, 2, 12)
	opt := DefaultTrainOptions()
	opt.Epochs = 40
	if _, err := m.Train(c.Train, opt); err != nil {
		t.Fatal(err)
	}
	acc := m.Accuracy(c.Test, 0)
	if acc < 0.8 {
		t.Errorf("test accuracy %.2f < 0.80 after training on single-fact task", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 10, 6, 13)
	m := newTestModel(t, c, 1, 13)
	if _, err := m.Train(nil, DefaultTrainOptions()); err == nil {
		t.Error("Train(nil) succeeded")
	}
	bad := []Example{{Sentences: [][]int{{1}}, Question: []int{1}, Answer: 999}}
	if _, err := m.Train(bad, DefaultTrainOptions()); err == nil {
		t.Error("Train with out-of-range answer succeeded")
	}
	bad2 := []Example{{Question: []int{1}, Answer: 0}}
	if _, err := m.Train(bad2, DefaultTrainOptions()); err == nil {
		t.Error("Train with empty story succeeded")
	}
}

func TestTrainDeterministic(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 30, 6, 14)
	opt := DefaultTrainOptions()
	opt.Epochs = 3
	m1 := newTestModel(t, c, 1, 14)
	m2 := newTestModel(t, c, 1, 14)
	r1, err := m1.Train(c.Train, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.Train(c.Train, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.EpochLoss {
		if r1.EpochLoss[i] != r2.EpochLoss[i] {
			t.Fatalf("epoch %d loss differs across identical runs: %v vs %v", i, r1.EpochLoss[i], r2.EpochLoss[i])
		}
	}
	if !tensor.Equal(m1.W, m2.W, 0) {
		t.Error("final weights differ across identical runs")
	}
}

func TestEvaluateSkipMonotonicity(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 60, 10, 15)
	m := newTestModel(t, c, 2, 15)
	opt := DefaultTrainOptions()
	opt.Epochs = 8
	if _, err := m.Train(c.Train, opt); err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, th := range []float32{0.001, 0.01, 0.1, 0.5} {
		s := m.EvaluateSkip(c.Test, th)
		if s.ComputeReduction < prev {
			t.Errorf("compute reduction not monotone in threshold at %v: %v < %v", th, s.ComputeReduction, prev)
		}
		prev = s.ComputeReduction
		if s.TotalRows == 0 {
			t.Fatal("no weighted-sum rows counted")
		}
	}
}

func TestAttentionMatrixShape(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 30, 8, 16)
	m := newTestModel(t, c, 2, 16)
	am := m.AttentionMatrix(c.Test, 5, 0)
	if am.Rows != c.MaxSent || am.Cols != 5 {
		t.Fatalf("attention matrix %dx%d, want %dx5", am.Rows, am.Cols, c.MaxSent)
	}
	// Every column must be a (possibly zero-padded) distribution.
	for q := 0; q < am.Cols; q++ {
		var sum float32
		for i := 0; i < am.Rows; i++ {
			sum += am.At(i, q)
		}
		if math.Abs(float64(sum)-1) > 1e-3 {
			t.Errorf("column %d sums to %v", q, sum)
		}
	}
}

func TestAttentionMatrixHopRangePanics(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 10, 6, 17)
	m := newTestModel(t, c, 1, 17)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range hop did not panic")
		}
	}()
	m.AttentionMatrix(c.Test, 2, 5)
}

func TestSparsityOfTrainedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	c := smallCorpus(t, babi.TaskSingleFact, 300, 12, 18)
	m := newTestModel(t, c, 2, 18)
	opt := DefaultTrainOptions()
	opt.Epochs = 30
	if _, err := m.Train(c.Train, opt); err != nil {
		t.Fatal(err)
	}
	s := m.SparsityOf(c.Test, 50)
	// The paper's Figure 6 claim: most probability values are near zero.
	if s.MeanBelow01 < 0.6 {
		t.Errorf("trained attention not sparse: only %.0f%% of p-values < 0.1", 100*s.MeanBelow01)
	}
	if s.MeanTopMass < 0.3 {
		t.Errorf("trained attention too diffuse: top mass %.2f", s.MeanTopMass)
	}
}

func TestAnswerWordRoundTrip(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 20, 6, 19)
	for i, w := range c.Answers {
		if c.AnswerWord(i) != w {
			t.Fatalf("AnswerWord(%d) = %q, want %q", i, c.AnswerWord(i), w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AnswerWord out of range did not panic")
		}
	}()
	c.AnswerWord(len(c.Answers))
}
