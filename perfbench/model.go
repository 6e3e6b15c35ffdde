package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"

	"mnnfast/internal/babi"
	"mnnfast/internal/memnn"
	"mnnfast/internal/tensor"
	"mnnfast/internal/vocab"
)

// trainModel trains the single-fact model exactly as mnnfast-serve does
// when it starts without -model, so its weights are the served ones.
func trainModel() (*memnn.Model, *memnn.Corpus, error) {
	opt := babi.GenOptions{Stories: 600, StoryLen: 12, People: 6, Locations: 6}
	d := babi.Generate(babi.TaskSingleFact, opt, rand.New(rand.NewSource(7)))
	train, test := d.Split(0.9)
	corpus := memnn.BuildCorpus(train, test, 0)
	model, err := memnn.NewModel(memnn.Config{
		Dim: 24, Hops: 2,
		Vocab:   corpus.Vocab.Size(),
		Answers: len(corpus.Answers),
		MaxSent: corpus.MaxSent,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		return nil, nil, err
	}
	topt := memnn.DefaultTrainOptions()
	topt.Epochs = 40
	if _, err := model.Train(corpus.Train, topt); err != nil {
		return nil, nil, err
	}
	return model, corpus, nil
}

// widen grows the temporal tables to rows by repeating the oldest
// trained row, so stories of that many sentences fit in memory.
func widen(m *memnn.Model, c *memnn.Corpus, rows int) {
	for _, tables := range [][]*tensor.Matrix{m.TimeIn, m.TimeOut} {
		for _, t := range tables {
			oldest := t.Row(t.Rows - 1)
			for t.Rows < rows {
				t.Data = append(t.Data, oldest...)
				t.Rows++
			}
		}
	}
	m.Cfg.MaxSent = rows
	c.MaxSent = rows
}

// saveModel writes m to path with memnn.Save.
func saveModel(path string, m *memnn.Model, c *memnn.Corpus) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := memnn.Save(bw, m, c); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadModel(path string) (*memnn.Model, *memnn.Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return memnn.Load(bufio.NewReader(f))
}

// oracle computes the reference answer of every (session, story
// version, question) the server was asked, with unbatched predicts on
// models loaded from the served model file: exact attention always,
// and the served top-k configuration where the workload uses it.
type oracle struct {
	in     *inputs
	exact  *memnn.Model
	served *memnn.Model // == exact unless the workload serves top-k
	corpus *memnn.Corpus
	file   string // the served model file
}

type oracleKey struct{ session, version, person int }

// reference is what the oracle expects for one key.
type reference struct {
	served, exact int // answer class under the served configuration and under exact attention
	truth         int // bAbI ground truth class, -1 when unknown
}

func newOracle(in *inputs, path string) (*oracle, error) {
	exact, corpus, err := loadModel(path)
	if err != nil {
		return nil, fmt.Errorf("oracle: load %s: %w", path, err)
	}
	o := &oracle{in: in, exact: exact, served: exact, corpus: corpus, file: path}
	if in.w.topk {
		served, _, err := loadModel(path)
		if err != nil {
			return nil, fmt.Errorf("oracle: load %s: %w", path, err)
		}
		served.SetTopK(servedTopK)
		o.served = served
	}
	return o, nil
}

// servedTopK is mnnfast-serve's -attention=topk configuration at its
// default -topk-k, -topk-nprobe and -topk-min-rows.
var servedTopK = memnn.TopKConfig{Enabled: true, K: 32}

// story returns session s's sentences after its first version appends
// in confirmed order.
func (o *oracle) story(s int, applied []int, version int) []string {
	st := append([]string(nil), o.in.stories[s]...)
	for _, app := range applied[:version] {
		st = append(st, o.in.appendSentences(s, app)...)
	}
	return st
}

// vectorize turns raw sentences into a memnn example exactly as the
// server does: tokenize, then keep the newest MaxSent sentences.
func (o *oracle) vectorize(sents []string) (memnn.Example, error) {
	toks := make([][]string, len(sents))
	for i, s := range sents {
		toks[i] = vocab.Tokenize(s)
	}
	return o.corpus.VectorizeStory(babi.Story{Sentences: toks})
}

// answers computes references for every key, embedding each distinct
// story version once per model.
func (o *oracle) answers(keys map[oracleKey]bool, applied [][]int) (map[oracleKey]reference, error) {
	byVersion := map[[2]int][]int{}
	for k := range keys {
		v := [2]int{k.session, k.version}
		byVersion[v] = append(byVersion[v], k.person)
	}
	out := make(map[oracleKey]reference, len(keys))
	var f memnn.Forward
	for v, persons := range byVersion {
		s, version := v[0], v[1]
		if version > len(applied[s]) {
			return nil, fmt.Errorf("oracle: session %d asked at version %d, only %d appends confirmed", s, version, len(applied[s]))
		}
		ex, err := o.vectorize(o.story(s, applied[s], version))
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		var esExact, esServed memnn.EmbeddedStory
		o.exact.EmbedStoryInto(ex, &esExact)
		if o.served != o.exact {
			o.served.EmbedStoryInto(ex, &esServed)
			o.served.BuildStoryIndex(&esServed)
		}
		for _, p := range persons {
			q, err := o.corpus.Vocab.EncodeStrict(vocab.Tokenize(question(p)))
			if err != nil {
				return nil, fmt.Errorf("oracle: question: %w", err)
			}
			ex.Question = q
			ref := reference{truth: -1}
			ref.exact = o.exact.PredictGated(ex, 0, memnn.ExitPolicy{}, &f, &esExact, nil)
			ref.served = ref.exact
			if o.served != o.exact {
				ref.served = o.served.PredictGated(ex, 0, memnn.ExitPolicy{}, &f, &esServed, nil)
			}
			if version == 0 && o.in.w.modelRows == 0 { // widened rows are untrained: no meaningful ground truth
				if idx, ok := o.corpus.AnswerIdx[o.in.truth[s][p]]; ok {
					ref.truth = idx
				}
			}
			out[oracleKey{s, version, p}] = ref
		}
	}
	return out, nil
}

// selfCheck guards against a broken oracle before anything is timed:
// on the trained model's own short stories the reference must match
// the bAbI ground truth almost always.
func (o *oracle) selfCheck() error {
	if o.in.w.modelRows != 0 {
		return nil // widened rows are untrained; accuracy is chance-level by design
	}
	keys := map[oracleKey]bool{}
	for s := range o.in.stories {
		for _, p := range o.in.askable[s] {
			keys[oracleKey{s, 0, p}] = true
		}
	}
	refs, err := o.answers(keys, make([][]int, len(o.in.stories)))
	if err != nil {
		return err
	}
	right := 0
	for _, r := range refs {
		if r.exact == r.truth {
			right++
		}
	}
	if acc := float64(right) / float64(len(refs)); acc < 0.8 {
		return fmt.Errorf("oracle self-check: reference accuracy %.3f on %d ground-truth questions, want >= 0.8", acc, len(refs))
	}
	return nil
}
