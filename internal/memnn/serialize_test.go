package memnn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mnnfast/internal/babi"
	"mnnfast/internal/tensor"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	c := smallCorpus(t, babi.TaskSingleFact, 60, 8, 31)
	m := newTestModel(t, c, 2, 31)
	opt := DefaultTrainOptions()
	opt.Epochs = 5
	if _, err := m.Train(c.Train, opt); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Save(&buf, m, c); err != nil {
		t.Fatal(err)
	}
	m2, c2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cfg != m.Cfg {
		t.Errorf("config mismatch: %+v vs %+v", m2.Cfg, m.Cfg)
	}
	if !tensor.Equal(m2.W, m.W, 0) || !tensor.Equal(m2.B, m.B, 0) {
		t.Error("weights differ after round trip")
	}
	if c2.Vocab.Size() != c.Vocab.Size() {
		t.Errorf("vocabulary size %d != %d", c2.Vocab.Size(), c.Vocab.Size())
	}
	for i, a := range c.Answers {
		if c2.Answers[i] != a || c2.AnswerIdx[a] != i {
			t.Errorf("answer inventory mismatch at %d", i)
		}
	}
	// Predictions must be identical through the loaded model.
	for _, ex := range c.Test {
		if m.PredictSkip(ex, 0) != m2.PredictSkip(ex, 0) {
			t.Fatal("loaded model predicts differently")
		}
	}
	// The loaded corpus must vectorize the same words to the same IDs.
	d := babi.Generate(babi.TaskSingleFact, babi.GenOptions{Stories: 1, StoryLen: 6, People: 3, Locations: 3},
		rand.New(rand.NewSource(31)))
	e1, err1 := c.VectorizeStory(d.Stories[0])
	e2, err2 := c2.VectorizeStory(d.Stories[0])
	if err1 != nil || err2 != nil {
		t.Fatalf("vectorize errors: %v / %v", err1, err2)
	}
	for i := range e1.Question {
		if e1.Question[i] != e2.Question[i] {
			t.Fatal("question IDs differ through loaded vocabulary")
		}
	}
}

func TestSaveNil(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, nil, nil); err == nil {
		t.Error("Save(nil) succeeded")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, _, err := Load(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Error("Load of garbage succeeded")
	}
}

// shapeCorruption is one corrupted snapshot of TestLoadRejectsBadShapes.
type shapeCorruption struct {
	name string
	snap snapshot
}

// shapeSnapshots returns valid adjacent- and layer-wise-tied snapshots
// of two small models, and corruptions of one part of them at a time —
// a truncated or reshaped matrix, a missing table, a vocabulary or
// answer inventory that disagrees with Cfg.
func shapeSnapshots(tb testing.TB) (valid []snapshot, bad []shapeCorruption) {
	c := smallCorpus(tb, babi.TaskSingleFact, 20, 6, 41)
	adjacent := newTestModel(tb, c, 2, 41)
	layerwise, err := NewModel(Config{
		Dim: 16, Hops: 2, Vocab: c.Vocab.Size(), Answers: len(c.Answers),
		MaxSent: c.MaxSent, Tying: TyingLayerwise,
	}, rand.New(rand.NewSource(41)))
	if err != nil {
		tb.Fatal(err)
	}
	snap := func(m *Model) snapshot {
		return snapshot{
			Cfg: m.Cfg, B: m.B, H: m.H, W: m.W,
			Emb:     append([]*tensor.Matrix(nil), m.Emb...),
			TimeIn:  append([]*tensor.Matrix(nil), m.TimeIn...),
			TimeOut: append([]*tensor.Matrix(nil), m.TimeOut...),
			Words:   c.Vocab.Words(),
			Answers: append([]string(nil), c.Answers...),
			MaxSent: c.MaxSent,
		}
	}
	half := func(m *tensor.Matrix) *tensor.Matrix {
		return &tensor.Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data[:len(m.Data)/2]}
	}
	shaped := func(rows, cols int) *tensor.Matrix {
		return &tensor.Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
	}
	d, v, a, ns := adjacent.Cfg.Dim, adjacent.Cfg.Vocab, adjacent.Cfg.Answers, adjacent.Cfg.MaxSent

	cases := []struct {
		name    string
		model   *Model
		corrupt func(s *snapshot)
	}{
		{"B truncated", adjacent, func(s *snapshot) { s.B = half(s.B) }},
		{"B rows", adjacent, func(s *snapshot) { s.B = shaped(v-1, d) }},
		{"B missing", adjacent, func(s *snapshot) { s.B = nil }},
		{"Emb[0] truncated", adjacent, func(s *snapshot) { s.Emb[0] = half(s.Emb[0]) }},
		{"Emb[2] cols", adjacent, func(s *snapshot) { s.Emb[2] = shaped(v, d+1) }},
		{"Emb count", adjacent, func(s *snapshot) { s.Emb = s.Emb[:2] }},
		{"TimeIn[0] truncated", adjacent, func(s *snapshot) { s.TimeIn[0] = half(s.TimeIn[0]) }},
		{"TimeIn[1] rows", adjacent, func(s *snapshot) { s.TimeIn[1] = shaped(ns+1, d) }},
		{"TimeOut[0] cols", adjacent, func(s *snapshot) { s.TimeOut[0] = shaped(ns, d-1) }},
		{"TimeOut[1] truncated", adjacent, func(s *snapshot) { s.TimeOut[1] = half(s.TimeOut[1]) }},
		{"W truncated", adjacent, func(s *snapshot) { s.W = half(s.W) }},
		{"W rows", adjacent, func(s *snapshot) { s.W = shaped(a+1, d) }},
		{"W missing", adjacent, func(s *snapshot) { s.W = nil }},
		{"H on adjacent", adjacent, func(s *snapshot) { s.H = shaped(d, d) }},
		{"H truncated", layerwise, func(s *snapshot) { s.H = half(s.H) }},
		{"H cols", layerwise, func(s *snapshot) { s.H = shaped(d, d+1) }},
		{"H missing", layerwise, func(s *snapshot) { s.H = nil }},
		{"layer-wise Emb[1] truncated", layerwise, func(s *snapshot) { s.Emb[1] = half(s.Emb[1]) }},
		{"extra word", adjacent, func(s *snapshot) { s.Words = append(s.Words, "zebra") }},
		{"missing word", adjacent, func(s *snapshot) { s.Words = s.Words[:len(s.Words)-1] }},
		{"duplicate word", adjacent, func(s *snapshot) { s.Words[len(s.Words)-1] = s.Words[1] }},
		{"missing answer", adjacent, func(s *snapshot) { s.Answers = s.Answers[:len(s.Answers)-1] }},
		{"corpus MaxSent over capacity", adjacent, func(s *snapshot) { s.MaxSent = ns + 1 }},
		{"layer-wise hop count", layerwise, func(s *snapshot) { s.Cfg.Hops = 1 << 40 }},
	}
	for _, tc := range cases {
		s := snap(tc.model)
		tc.corrupt(&s)
		bad = append(bad, shapeCorruption{tc.name, s})
	}
	return []snapshot{snap(adjacent), snap(layerwise)}, bad
}

// encodeSnapshot gob-encodes s as Save would.
func encodeSnapshot(tb testing.TB, s snapshot) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsBadShapes loads each corruption of shapeSnapshots and
// expects Load to fail instead of returning a model that panics in
// Predict.
func TestLoadRejectsBadShapes(t *testing.T) {
	valid, bad := shapeSnapshots(t)
	for _, s := range valid {
		if _, _, err := Load(bytes.NewReader(encodeSnapshot(t, s))); err != nil {
			t.Fatalf("valid %s-tied snapshot: %v", s.Cfg.Tying, err)
		}
	}
	for _, tc := range bad {
		if _, _, err := Load(bytes.NewReader(encodeSnapshot(t, tc.snap))); err == nil {
			t.Errorf("%s: Load succeeded, want an error", tc.name)
		} else if !strings.Contains(err.Error(), "corrupt snapshot") {
			t.Errorf("%s: error %q does not name a corrupt snapshot", tc.name, err)
		}
	}
}

// TestCheckShapeOverflow pins the overflow guard: a rows×cols claim
// whose int product wraps to a small length must not pass as a matrix
// of that length.
func TestCheckShapeOverflow(t *testing.T) {
	const rows = 18
	var span uint64 = math.MaxUint64
	cols := int(span/rows + 1)
	n := rows * cols // wraps past 2⁶⁴ to a small positive length
	if n <= 0 || n > 64 {
		t.Fatalf("test premise: %d×%d wraps to %d", rows, cols, n)
	}
	m := &tensor.Matrix{Rows: rows, Cols: cols, Data: make([]float32, n)}
	if err := checkShape(m, rows, cols); err == nil {
		t.Fatalf("checkShape accepted %d×%d backed by %d values", rows, cols, n)
	}
}

// FuzzLoad feeds arbitrary bytes to Load, seeded with a small Saved
// model and every TestLoadRejectsBadShapes corruption. Load must either
// return an error or a model that answers a corpus example without
// panicking.
func FuzzLoad(f *testing.F) {
	c := smallCorpus(f, babi.TaskSingleFact, 20, 6, 43)
	m := newTestModel(f, c, 2, 43)
	var buf bytes.Buffer
	if err := Save(&buf, m, c); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	valid, bad := shapeSnapshots(f)
	for _, s := range valid {
		f.Add(encodeSnapshot(f, s))
	}
	for _, tc := range bad {
		f.Add(encodeSnapshot(f, tc.snap))
	}
	story := babi.Generate(babi.TaskSingleFact, babi.GenOptions{Stories: 1, StoryLen: 6, People: 3, Locations: 3},
		rand.New(rand.NewSource(43))).Stories[0]

	f.Fuzz(func(t *testing.T, raw []byte) {
		m, c, err := Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		ex, err := c.VectorizeStory(story)
		if err != nil {
			// A mutated vocabulary no longer spells the story: ask with
			// the last word ID, which the model's shapes must cover.
			w := m.Cfg.Vocab - 1
			ex = Example{Question: []int{w}, Sentences: [][]int{{w}, {w, w}}[:min(2, c.MaxSent)]}
		}
		m.PredictSkip(ex, 0)
	})
}
