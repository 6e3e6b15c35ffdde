package memnn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"mnnfast/internal/tensor"
	"mnnfast/internal/vocab"
)

// snapshot is the gob wire format of a model plus the corpus metadata
// needed to use it (vocabulary and answer inventory).
type snapshot struct {
	Cfg     Config
	B       *tensor.Matrix
	Emb     []*tensor.Matrix
	TimeIn  []*tensor.Matrix
	TimeOut []*tensor.Matrix
	H       *tensor.Matrix // layer-wise tying only; nil otherwise
	W       *tensor.Matrix
	Words   []string // vocabulary in ID order
	Answers []string
	MaxSent int
}

// Save writes the model and its corpus metadata to w in gob format.
func Save(w io.Writer, m *Model, c *Corpus) error {
	if m == nil || c == nil {
		return fmt.Errorf("memnn: Save(nil)")
	}
	s := snapshot{
		Cfg: m.Cfg, B: m.B, Emb: m.Emb,
		TimeIn: m.TimeIn, TimeOut: m.TimeOut, H: m.H, W: m.W,
		Words: c.Vocab.Words(), Answers: c.Answers, MaxSent: c.MaxSent,
	}
	if err := gob.NewEncoder(w).Encode(&s); err != nil {
		return fmt.Errorf("memnn: encode: %w", err)
	}
	return nil
}

// Load reads a model saved with Save. The returned Corpus carries the
// frozen vocabulary and answer inventory (no train/test examples).
func Load(r io.Reader) (*Model, *Corpus, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, nil, fmt.Errorf("memnn: decode: %w", err)
	}
	if err := s.Cfg.validate(); err != nil {
		return nil, nil, fmt.Errorf("memnn: corrupt snapshot: %w", err)
	}
	if err := s.check(); err != nil {
		return nil, nil, fmt.Errorf("memnn: corrupt snapshot: %w", err)
	}
	m := &Model{
		Cfg: s.Cfg, B: s.B, Emb: s.Emb,
		TimeIn: s.TimeIn, TimeOut: s.TimeOut, H: s.H, W: s.W,
	}
	c := &Corpus{
		Vocab:     rebuildVocab(s.Words),
		Answers:   s.Answers,
		AnswerIdx: make(map[string]int, len(s.Answers)),
		MaxSent:   s.MaxSent,
	}
	for i, a := range s.Answers {
		c.AnswerIdx[a] = i
	}
	if c.Vocab.Size() != s.Cfg.Vocab {
		return nil, nil, fmt.Errorf("memnn: corrupt snapshot: %d distinct words, want %d", c.Vocab.Size(), s.Cfg.Vocab)
	}
	return m, c, nil
}

// check validates a decoded snapshot against its Cfg: table counts,
// every matrix's shape and data length, and the answer inventory, so a
// corrupt file fails here instead of as an out-of-range panic in
// Predict.
func (s *snapshot) check() error {
	c := s.Cfg
	if c.Hops > maxSnapshotHops {
		// Layer-wise tying stores no per-hop tables, so nothing else in
		// the file bounds the hop count a forward pass would allocate.
		return fmt.Errorf("%d hops, more than %d", c.Hops, maxSnapshotHops)
	}
	wantEmb, wantTime := c.Hops+1, c.Hops
	if c.Tying == TyingLayerwise {
		wantEmb, wantTime = 2, 1
	}
	if len(s.Emb) != wantEmb || len(s.TimeIn) != wantTime || len(s.TimeOut) != wantTime {
		return fmt.Errorf("table counts do not match %d hops (%s tying)", c.Hops, c.Tying)
	}
	if err := checkShape(s.B, c.Vocab, c.Dim); err != nil {
		return fmt.Errorf("B: %w", err)
	}
	for i, e := range s.Emb {
		if err := checkShape(e, c.Vocab, c.Dim); err != nil {
			return fmt.Errorf("Emb[%d]: %w", i, err)
		}
	}
	for i := range s.TimeIn {
		if err := checkShape(s.TimeIn[i], c.MaxSent, c.Dim); err != nil {
			return fmt.Errorf("TimeIn[%d]: %w", i, err)
		}
		if err := checkShape(s.TimeOut[i], c.MaxSent, c.Dim); err != nil {
			return fmt.Errorf("TimeOut[%d]: %w", i, err)
		}
	}
	switch {
	case c.Tying == TyingLayerwise:
		if err := checkShape(s.H, c.Dim, c.Dim); err != nil {
			return fmt.Errorf("H: %w", err)
		}
	case s.H != nil:
		return fmt.Errorf("H present in a %s-tied model", c.Tying)
	}
	if err := checkShape(s.W, c.Answers, c.Dim); err != nil {
		return fmt.Errorf("W: %w", err)
	}
	if len(s.Answers) != c.Answers {
		return fmt.Errorf("%d answers, want %d", len(s.Answers), c.Answers)
	}
	if s.MaxSent < 1 || s.MaxSent > c.MaxSent {
		return fmt.Errorf("corpus MaxSent %d outside [1, %d]", s.MaxSent, c.MaxSent)
	}
	return nil
}

// maxSnapshotHops bounds the hop count Load accepts: far above any
// trained memory network (the paper's models use 3).
const maxSnapshotHops = 1 << 10

// checkShape reports whether m is a rows×cols matrix whose data fills
// it. cols is a validated dimension (≥ 1); a rows×cols product that
// overflows int is rejected rather than wrapped into a small length.
func checkShape(m *tensor.Matrix, rows, cols int) error {
	switch {
	case m == nil:
		return errors.New("missing")
	case rows > math.MaxInt/cols:
		return fmt.Errorf("%d×%d overflows", rows, cols)
	case m.Rows != rows || m.Cols != cols || len(m.Data) != rows*cols:
		return fmt.Errorf("%d×%d with %d values, want %d×%d", m.Rows, m.Cols, len(m.Data), rows, cols)
	}
	return nil
}

func rebuildVocab(words []string) *vocab.Vocabulary {
	v := vocab.New()
	for i, w := range words {
		if i == 0 {
			continue // index 0 is the pad token New() already adds
		}
		v.Add(w)
	}
	return v
}
