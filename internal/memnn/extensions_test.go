package memnn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mnnfast/internal/babi"
	"mnnfast/internal/tensor"
)

func extModel(t *testing.T, c *Corpus, cfgMod func(*Config), seed int64) *Model {
	t.Helper()
	cfg := Config{
		Dim:     16,
		Hops:    2,
		Vocab:   c.Vocab.Size(),
		Answers: len(c.Answers),
		MaxSent: c.MaxSent,
	}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	m, err := NewModel(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTyingString(t *testing.T) {
	if TyingAdjacent.String() != "adjacent" || TyingLayerwise.String() != "layerwise" {
		t.Error("tying names wrong")
	}
	if Tying(9).String() == "" {
		t.Error("unknown tying should still format")
	}
}

func TestConfigRejectsUnknownTying(t *testing.T) {
	cfg := Config{Dim: 4, Hops: 1, Vocab: 4, Answers: 2, MaxSent: 4, Tying: Tying(7)}
	if _, err := NewModel(cfg, rand.New(rand.NewSource(0))); err == nil {
		t.Error("unknown tying accepted")
	}
}

func TestLayerwiseModelShape(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 30, 6, 50)
	m := extModel(t, c, func(cfg *Config) { cfg.Tying = TyingLayerwise; cfg.Hops = 3 }, 50)
	if len(m.Emb) != 2 {
		t.Errorf("layer-wise Emb count = %d, want 2 (A and C)", len(m.Emb))
	}
	if len(m.TimeIn) != 1 || len(m.TimeOut) != 1 {
		t.Errorf("layer-wise temporal tables = %d/%d, want 1/1", len(m.TimeIn), len(m.TimeOut))
	}
	if m.H == nil || m.H.Rows != 16 || m.H.Cols != 16 {
		t.Fatalf("layer-wise H missing or misshapen: %+v", m.H)
	}
	// Forward still produces valid distributions.
	f := m.Apply(c.Train[0], 0)
	for k, p := range f.P {
		if s := p.Sum(); math.Abs(float64(s)-1) > 1e-4 {
			t.Errorf("hop %d attention sums to %v", k, s)
		}
	}
}

func TestLayerwiseNumParamsIndependentOfHops(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 20, 6, 51)
	m2 := extModel(t, c, func(cfg *Config) { cfg.Tying = TyingLayerwise; cfg.Hops = 2 }, 51)
	m5 := extModel(t, c, func(cfg *Config) { cfg.Tying = TyingLayerwise; cfg.Hops = 5 }, 51)
	if m2.NumParams() != m5.NumParams() {
		t.Errorf("layer-wise params depend on hop count: %d vs %d", m2.NumParams(), m5.NumParams())
	}
	adj := extModel(t, c, func(cfg *Config) { cfg.Hops = 5 }, 51)
	if adj.NumParams() <= m5.NumParams() {
		t.Errorf("adjacent (%d) should carry more params than layer-wise (%d) at 5 hops",
			adj.NumParams(), m5.NumParams())
	}
}

// gradCheck verifies analytic gradients against central differences for
// an arbitrary model configuration.
func gradCheck(t *testing.T, m *Model, ex Example, seed int64) {
	t.Helper()
	g := newGrads(m)
	g.zero()
	m.backward(ex, m.Apply(ex, 0), g)

	lossOf := func() float64 {
		f := m.Apply(ex, 0)
		probs := f.Logits.Clone()
		tensor.Softmax(probs)
		return -math.Log(math.Max(float64(probs[ex.Answer]), 1e-30))
	}
	type pair struct {
		name  string
		param *tensor.Matrix
		grad  *tensor.Matrix
	}
	pairs := []pair{{"B", m.B, g.b}, {"W", m.W, g.w}}
	for i := range m.Emb {
		pairs = append(pairs, pair{"Emb", m.Emb[i], g.emb[i]})
	}
	for k := range m.TimeIn {
		pairs = append(pairs, pair{"TimeIn", m.TimeIn[k], g.timeIn[k]})
		pairs = append(pairs, pair{"TimeOut", m.TimeOut[k], g.timeOut[k]})
	}
	if m.H != nil {
		pairs = append(pairs, pair{"H", m.H, g.h})
	}
	const eps, cutoff = 1e-2, 2e-3
	rng := rand.New(rand.NewSource(seed))
	for _, pp := range pairs {
		checked := 0
		for try := 0; try < 400 && checked < 6; try++ {
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
				continue
			}
			checked++
			if rel := math.Abs(analytic-numeric) / math.Abs(numeric); rel > 0.1 {
				t.Errorf("%s[%d]: analytic %g vs numeric %g (rel %g)", pp.name, i, analytic, numeric, rel)
			}
		}
	}
}

func TestGradientCheckLayerwise(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 10, 4, 52)
	m := extModel(t, c, func(cfg *Config) {
		cfg.Dim = 5
		cfg.Tying = TyingLayerwise
		cfg.Hops = 3
	}, 52)
	gradCheck(t, m, c.Train[0], 52)
}

func TestGradientCheckPositionEncoding(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 10, 4, 53)
	m := extModel(t, c, func(cfg *Config) {
		cfg.Dim = 5
		cfg.Position = true
	}, 53)
	gradCheck(t, m, c.Train[0], 53)
}

func TestGradientCheckLinearAttention(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 10, 4, 54)
	m := extModel(t, c, func(cfg *Config) { cfg.Dim = 5 }, 54)
	m.LinearAttention = true
	gradCheck(t, m, c.Train[0], 54)
}

func TestPositionEncodingOrderSensitivity(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 10, 6, 55)
	pe := extModel(t, c, func(cfg *Config) { cfg.Position = true }, 55)
	bow := extModel(t, c, nil, 55)

	ex := c.Train[0]
	rev := Example{Sentences: ex.Sentences, Answer: ex.Answer}
	rev.Question = make([]int, len(ex.Question))
	for i, w := range ex.Question {
		rev.Question[len(ex.Question)-1-i] = w
	}
	fPE := pe.Apply(ex, 0)
	fPErev := pe.Apply(rev, 0)
	if tensor.MaxAbsDiff(fPE.Logits, fPErev.Logits) < 1e-6 {
		t.Error("position encoding should distinguish question word order")
	}
	fBoW := bow.Apply(ex, 0)
	fBoWrev := bow.Apply(rev, 0)
	if tensor.MaxAbsDiff(fBoW.Logits, fBoWrev.Logits) > 1e-5 {
		t.Error("plain BoW must be order-invariant")
	}
}

func TestLinearAttentionSkipsSoftmax(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 10, 6, 56)
	m := extModel(t, c, nil, 56)
	m.LinearAttention = true
	f := m.Apply(c.Train[0], 0)
	// Raw inner products do not normalize to 1 (vanishingly unlikely).
	if s := f.P[0].Sum(); math.Abs(float64(s)-1) < 1e-6 {
		t.Errorf("linear attention looks normalized (sum %v)", s)
	}
	m.LinearAttention = false
	f2 := m.Apply(c.Train[0], 0)
	if s := f2.P[0].Sum(); math.Abs(float64(s)-1) > 1e-4 {
		t.Errorf("softmax attention does not sum to 1: %v", s)
	}
}

func TestTrainLayerwiseConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	c := smallCorpus(t, babi.TaskSingleFact, 400, 8, 57)
	m := extModel(t, c, func(cfg *Config) { cfg.Tying = TyingLayerwise; cfg.Hops = 3 }, 57)
	opt := DefaultTrainOptions()
	opt.Epochs = 60
	if _, err := m.Train(c.Train, opt); err != nil {
		t.Fatal(err)
	}
	// Layer-wise tying trades capacity for parameter sharing; require
	// it to learn far beyond the ~25% answer-class prior.
	if acc := m.Accuracy(c.Test, 0); acc < 0.6 {
		t.Errorf("layer-wise test accuracy %.2f < 0.60", acc)
	}
}

func TestTrainLinearStart(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 100, 8, 58)
	m := extModel(t, c, nil, 58)
	opt := DefaultTrainOptions()
	opt.Epochs = 10
	opt.LinearStartEpochs = 4
	res, err := m.Train(c.Train, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.LinearAttention {
		t.Error("LinearAttention left enabled after training")
	}
	if len(res.EpochLoss) != 10 {
		t.Errorf("%d epoch losses", len(res.EpochLoss))
	}
	if res.EpochLoss[len(res.EpochLoss)-1] >= res.EpochLoss[0] {
		t.Errorf("loss did not decrease through linear start: %v", res.EpochLoss)
	}
}

func TestTrainPositionEncodingConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	c := smallCorpus(t, babi.TaskSingleFact, 400, 8, 59)
	m := extModel(t, c, func(cfg *Config) { cfg.Position = true }, 59)
	opt := DefaultTrainOptions()
	opt.Epochs = 60
	if _, err := m.Train(c.Train, opt); err != nil {
		t.Fatal(err)
	}
	// PE weights shrink the effective signal of plain where-is stories;
	// require clear learning beyond the ~25% answer-class prior.
	if acc := m.Accuracy(c.Test, 0); acc < 0.6 {
		t.Errorf("PE test accuracy %.2f < 0.60", acc)
	}
}

func TestSaveLoadLayerwise(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 40, 6, 60)
	m := extModel(t, c, func(cfg *Config) { cfg.Tying = TyingLayerwise; cfg.Hops = 2 }, 60)
	var buf bytes.Buffer
	if err := Save(&buf, m, c); err != nil {
		t.Fatal(err)
	}
	m2, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.H == nil || !tensor.Equal(m.H, m2.H, 0) {
		t.Error("H not preserved through save/load")
	}
	for _, ex := range c.Test {
		if m.PredictSkip(ex, 0) != m2.PredictSkip(ex, 0) {
			t.Fatal("layer-wise loaded model predicts differently")
		}
	}
}

func TestMiniBatchTraining(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 120, 8, 61)
	// Batch sizes 1 and 4 must both converge; batch=1 equals the
	// default path bit-for-bit.
	def := extModel(t, c, nil, 61)
	b1 := extModel(t, c, nil, 61)
	opt := DefaultTrainOptions()
	opt.Epochs = 6
	resDef, err := def.Train(c.Train, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt1 := opt
	opt1.BatchSize = 1
	resB1, err := b1.Train(c.Train, opt1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resDef.EpochLoss {
		if resDef.EpochLoss[i] != resB1.EpochLoss[i] {
			t.Fatalf("batch=1 diverges from default at epoch %d: %v vs %v",
				i, resB1.EpochLoss[i], resDef.EpochLoss[i])
		}
	}
	b4 := extModel(t, c, nil, 61)
	opt4 := opt
	opt4.BatchSize = 4
	opt4.Epochs = 12
	res4, err := b4.Train(c.Train, opt4)
	if err != nil {
		t.Fatal(err)
	}
	if last := res4.EpochLoss[len(res4.EpochLoss)-1]; last >= res4.EpochLoss[0] {
		t.Errorf("mini-batch training did not reduce loss: %v", res4.EpochLoss)
	}
}

func TestEvaluateReport(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 120, 8, 62)
	m := extModel(t, c, nil, 62)
	opt := DefaultTrainOptions()
	opt.Epochs = 15
	if _, err := m.Train(c.Train, opt); err != nil {
		t.Fatal(err)
	}
	r := m.Evaluate(c, c.Test, 0)
	if r.Overall != m.Accuracy(c.Test, 0) {
		t.Errorf("report overall %v != Accuracy %v", r.Overall, m.Accuracy(c.Test, 0))
	}
	var total int
	for _, counts := range r.PerAnswer {
		if counts[0] > counts[1] {
			t.Fatalf("per-answer correct exceeds total: %v", counts)
		}
		total += counts[1]
	}
	if total != len(c.Test) {
		t.Errorf("per-answer totals %d != test size %d", total, len(c.Test))
	}
	var errors int
	for _, n := range r.Confusions {
		errors += n
	}
	wantErrors := int(float64(len(c.Test))*(1-r.Overall) + 0.5)
	if errors != wantErrors {
		t.Errorf("confusion count %d != error count %d", errors, wantErrors)
	}
	out := r.String()
	if !strings.Contains(out, "overall accuracy") || !strings.Contains(out, "per-answer accuracy") {
		t.Errorf("report text incomplete:\n%s", out)
	}
}

func TestValidationCurveAndEarlyStop(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 200, 8, 63)
	m := extModel(t, c, nil, 63)
	opt := DefaultTrainOptions()
	opt.Epochs = 50
	opt.Validation = c.Test
	opt.Patience = 3
	res, err := m.Train(c.Train, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ValAccuracy) != res.StoppedAt {
		t.Fatalf("%d validation points for %d epochs", len(res.ValAccuracy), res.StoppedAt)
	}
	if res.StoppedAt > opt.Epochs {
		t.Fatalf("ran %d epochs of %d", res.StoppedAt, opt.Epochs)
	}
	for _, a := range res.ValAccuracy {
		if a < 0 || a > 1 {
			t.Fatalf("validation accuracy out of range: %v", a)
		}
	}
	// Early stopping must hold its contract: if we stopped early, the
	// final Patience epochs brought no new best.
	if res.StoppedAt < opt.Epochs {
		best := 0.0
		bestIdx := 0
		for i, a := range res.ValAccuracy {
			if a >= best {
				best = a
				bestIdx = i
			}
		}
		if len(res.ValAccuracy)-1-bestIdx < opt.Patience {
			t.Errorf("stopped early but best epoch %d is within patience of end (%d epochs)",
				bestIdx, len(res.ValAccuracy))
		}
	}
}

func TestValidationWithoutPatienceRunsAllEpochs(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 60, 6, 64)
	m := extModel(t, c, nil, 64)
	opt := DefaultTrainOptions()
	opt.Epochs = 5
	opt.Validation = c.Test
	res, err := m.Train(c.Train, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.StoppedAt != 5 || len(res.ValAccuracy) != 5 {
		t.Errorf("ran %d epochs with %d val points, want 5/5", res.StoppedAt, len(res.ValAccuracy))
	}
}
