package main

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func mustWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func items(reqs []*req) []item {
	out := make([]item, len(reqs))
	for i, r := range reqs {
		out[i] = r.it
	}
	return out
}

func TestInputsSameSeedSameRequests(t *testing.T) {
	for _, name := range []string{"qa-short", "kb-churn"} {
		w := mustWorkload(t, name)
		a, b, c := newInputs(w, 7), newInputs(w, 7), newInputs(w, 8)
		if !reflect.DeepEqual(a.stories, b.stories) || !reflect.DeepEqual(a.truth, b.truth) {
			t.Fatalf("%s: same seed, different stories", name)
		}
		if reflect.DeepEqual(a.stories, c.stories) {
			t.Fatalf("%s: seeds 7 and 8 gave the same stories", name)
		}
		ra := newStream(a).take(w.refRate, 2*time.Second)
		rb := newStream(b).take(w.refRate, 2*time.Second)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%s: same seed, different request stream", name)
		}
		if reflect.DeepEqual(items(ra), items(newStream(c).take(w.refRate, 2*time.Second))) {
			t.Fatalf("%s: seeds 7 and 8 gave the same request stream", name)
		}
		if !reflect.DeepEqual(a.appendSentences(1, 3), b.appendSentences(1, 3)) {
			t.Fatalf("%s: same seed, different appends", name)
		}
	}
}

// The rate only scales arrival times: the same seed sends the same
// requests in the same order at any rate, across phase boundaries.
func TestStreamOrderIndependentOfRate(t *testing.T) {
	w := mustWorkload(t, "kb-churn")
	in := newInputs(w, 3)
	one := items(newStream(in).take(100, 10*time.Second))
	st := newStream(in)
	var split []item
	for _, rate := range []float64{100, 250, 40, 400} {
		split = append(split, items(st.take(rate, time.Second))...)
	}
	n := min(len(one), len(split))
	if n < 500 || !reflect.DeepEqual(one[:n], split[:n]) {
		t.Fatalf("request order depends on the rate schedule (compared %d)", n)
	}
}

func TestStreamAppendsEvery25thAnswer(t *testing.T) {
	w := mustWorkload(t, "kb-churn")
	reqs := newStream(newInputs(w, 5)).take(100, 20*time.Second)
	asked := make([]int, w.sessions)
	nextApp := make([]int, w.sessions)
	var last *req
	for _, r := range reqs {
		s := r.it.session
		if r.it.story {
			if last == nil || last.it.story || last.it.session != s || asked[s]%w.appendEvery != 0 {
				t.Fatalf("append on session %d does not follow its %dth answer", s, w.appendEvery)
			}
			if r.it.app != nextApp[s] || r.due != last.due {
				t.Fatalf("append %d on session %d: want number %d due with its answer", r.it.app, s, nextApp[s])
			}
			nextApp[s]++
		} else {
			asked[s]++
		}
		last = r
	}
	for s := range asked {
		if nextApp[s] != asked[s]/w.appendEvery {
			t.Fatalf("session %d: %d answers, %d appends", s, asked[s], nextApp[s])
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Fatalf("p25 = %v, want 2", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Fatalf("median of 1,2 = %v, want 1.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("quantile of nothing should be NaN")
	}
	// 1000 samples of 1..1000 ms; then with the slowest 2% failed,
	// which count as infinitely slow.
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i+1) / 1e3
	}
	if got := quantile(lat, 0.99); math.Abs(got-0.99001) > 1e-9 {
		t.Fatalf("p99 of 1..1000 ms = %v", got)
	}
	for i := 980; i < 1000; i++ {
		lat[i] = math.Inf(1)
	}
	if got := quantile(lat, 0.99); !math.IsInf(got, 1) {
		t.Fatalf("p99 with 2%% failures = %v, want +Inf", got)
	}
}

func flat(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestJudge(t *testing.T) {
	const slo = 0.010
	if r := judge(100, flat(1000, 0.002), false, slo); !r.pass || r.backlog {
		t.Fatalf("steady 2 ms answers fail a 10 ms bound: %+v", r)
	}
	// Failures count as misses.
	lat := flat(1000, 0.002)
	for i := 0; i < 20; i++ {
		lat[i*50] = math.Inf(1)
	}
	if r := judge(100, lat, false, slo); r.pass {
		t.Fatalf("2%% failed requests still pass: %+v", r)
	}
	// A growing backlog fails even while p99 is inside the bound.
	grow := make([]float64, 1000)
	for i := range grow {
		grow[i] = 0.001 + 0.008*float64(i)/1000
	}
	if r := judge(100, grow, false, slo); r.pass || !r.backlog {
		t.Fatalf("growing latency not flagged as backlog: %+v", r)
	}
	if r := judge(100, flat(1000, 0.002), true, slo); r.pass || !r.backlog {
		t.Fatalf("aborted rung passes: %+v", r)
	}
}

func TestLadder(t *testing.T) {
	rungs := []rung{{rate: 100, pass: true}}
	if got := nextRate(rungs, 1.25); got != 125 {
		t.Fatalf("after a pass: %v, want 125", got)
	}
	rungs = append(rungs, rung{rate: 125, pass: false})
	if got := nextRate(rungs, 1.25); math.Abs(got-math.Sqrt(100*125)) > 1e-9 {
		t.Fatalf("bisection: %v", got)
	}
	if got := nextRate([]rung{{rate: 100}}, 1.25); got != 80 {
		t.Fatalf("after a failure: %v, want 80", got)
	}
}

func TestSloQPS(t *testing.T) {
	const slo = 0.010
	// p99 of 5 ms at 100/s and 20 ms at 200/s: log-linear interpolation
	// puts 10 ms halfway in log rate.
	rungs := []rung{{rate: 100, p99: 0.005, pass: true}, {rate: 200, p99: 0.020}}
	if got := sloQPS(rungs, slo); math.Abs(got-100*math.Sqrt2) > 1e-9 {
		t.Fatalf("interpolated slo_qps = %v, want %v", got, 100*math.Sqrt2)
	}
	// A rung with failures (+Inf p99) crosses the bound just above the
	// last passing rate.
	rungs[1].p99 = math.Inf(1)
	if got := sloQPS(rungs, slo); got < 100 || got > 110 {
		t.Fatalf("slo_qps with an infinite failing p99 = %v, want just above 100", got)
	}
	// Noise that makes p99 fall with rate is pooled by the monotone fit.
	rungs = []rung{{rate: 100, p99: 0.005, pass: true}, {rate: 125, p99: 0.012}, {rate: 150, p99: 0.009, pass: true}}
	if got := sloQPS(rungs, slo); got < 100 || got > 125 {
		t.Fatalf("slo_qps = %v, want within the first bracket [100, 125]", got)
	}
	// Everything passes: the highest rate tried.
	if got := sloQPS([]rung{{rate: 100, pass: true}, {rate: 125, pass: true}}, slo); got != 125 {
		t.Fatalf("all pass: %v, want 125", got)
	}
	// Nothing passes: positive, below the lowest rate.
	if got := sloQPS([]rung{{rate: 100, p99: 0.020}, {rate: 80, p99: math.Inf(1)}}, slo); got <= 0 || got >= 80 {
		t.Fatalf("none pass: %v", got)
	}
}

func TestSpanSelfUsesUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "phase", start: 0, end: 100, parent: -1},
		{name: "req", start: 10, end: 50, parent: 0},
		{name: "req", start: 30, end: 70, parent: 0}, // overlaps the first
		{name: "wait", start: 10, end: 20, parent: 1},
	}
	self := spanSelf(spans)
	if self["phase"] != 40 || self["req"] != 70 || self["wait"] != 10 {
		t.Fatalf("self times %v, want phase 40, req 70, wait 10", self)
	}
}

// The oracle must flag an answer that differs from the unbatched
// reference, and must not flag the reference itself.
func TestOracleCatchesFlippedAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the served model")
	}
	w := mustWorkload(t, "qa-short")
	in := newInputs(w, 1)
	model, corpus, err := trainModel()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := saveModel(path, model, corpus); err != nil {
		t.Fatal(err)
	}
	orc, err := newOracle(in, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := orc.selfCheck(); err != nil {
		t.Fatal(err)
	}
	refs, err := orc.answers(map[oracleKey]bool{{0, 0, in.askable[0][0]}: true}, make([][]int, w.sessions))
	if err != nil {
		t.Fatal(err)
	}
	want := refs[oracleKey{0, 0, in.askable[0][0]}].served
	answer := func(index int) *result {
		r := &req{it: item{session: 0, person: in.askable[0][0]}, state: stOK, index: index, word: corpus.AnswerWord(index), sents: w.rows}
		ph := &phase{reqs: []*req{r}}
		b := &bench{w: w, in: in, orc: orc, setups: []*phase{ph}, applied: make([][]int, w.sessions), m: map[string]float64{}}
		res := &result{Metrics: map[string]metric{}, Correct: true}
		b.check(res)
		return res
	}
	if res := answer(want); len(res.problems) != 0 {
		t.Fatalf("the reference answer was flagged: %v", res.problems)
	}
	res := answer((want + 1) % len(corpus.Answers))
	if len(res.problems) == 0 || !strings.Contains(res.problems[0], "differ from the unbatched reference") {
		t.Fatalf("a flipped answer was not flagged: %v", res.problems)
	}
}
