package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// workload is one traffic mix: the served model, the sessions' stories,
// the reference answer rate and the latency bound its SLO ladder uses.
type workload struct {
	name        string
	sessions    int
	rows        int           // sentences per session story at set-up
	modelRows   int           // temporal rows of a widened model served via -model; 0 = the server trains its own
	topk        bool          // serve with -attention=topk
	refRate     float64       // reference answer rate, 1/s
	slo         time.Duration // answer p99 bound
	appendEvery int           // answers on a session between story appends; 0 = no appends
	appendLen   int           // sentences per append
	ingestChunk int           // sentences per POST /v1/story during set-up
}

// pinned reports whether each session's requests must stay on one
// connection, so the story version every answer saw is known.
func (w *workload) pinned() bool { return w.appendEvery > 0 }

var workloads = []workload{
	{name: "qa-short", sessions: 128, rows: 10, refRate: 300, slo: 10 * time.Millisecond, ingestChunk: 1},
	// The kb workloads' reference rate is 50/s, not 100/s. At 100/s the
	// server's single batch dispatcher queues enough that the answer p50
	// moved 2-3x with the host's CPU steal (kb-large 7-21 ms); kb-churn
	// also holds that dispatcher ~85 ms per index rebuild, and its p50
	// swung between 4 and 38 ms from seed to seed.
	{name: "kb-large", sessions: 2, rows: 32768, modelRows: 32768, refRate: 50, slo: 50 * time.Millisecond, ingestChunk: 128},
	{name: "kb-churn", sessions: 4, rows: 8192, modelRows: 8192, topk: true, refRate: 50, slo: 150 * time.Millisecond,
		appendEvery: 25, appendLen: 4, ingestChunk: 64},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// The served model is trained on the built-in single-fact task, whose
// vocabulary holds exactly these actors and places.
var (
	people    = []string{"john", "mary", "sandra", "daniel", "emily", "frank"}
	locations = []string{"kitchen", "hallway", "garden", "bathroom", "office", "bedroom"}
)

// seedFor derives an independent RNG seed for one purpose from the
// workload seed, so adding a draw in one place never shifts another.
func seedFor(seed int64, purpose string, n int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(n)*0xBF58476D1CE4E5B9
	for _, c := range purpose {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return int64(h >> 1)
}

func sentences(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = people[rng.Intn(len(people))] + " went to the " + locations[rng.Intn(len(locations))]
	}
	return out
}

// inputs is everything a run sends, generated from the seed alone.
type inputs struct {
	w       *workload
	seed    int64
	stories [][]string // per session, at set-up
	askable [][]int    // per session: people the set-up story mentions
	truth   [][]string // per session, per person: last location in the set-up story ("" if never mentioned)
}

func newInputs(w *workload, seed int64) *inputs {
	in := &inputs{w: w, seed: seed}
	for s := 0; s < w.sessions; s++ {
		story := sentences(rand.New(rand.NewSource(seedFor(seed, "story", s))), w.rows)
		truth := make([]string, len(people))
		for _, sent := range story {
			f := strings.Fields(sent)
			for p, name := range people {
				if f[0] == name {
					truth[p] = f[len(f)-1]
				}
			}
		}
		var ask []int
		for p := range people {
			if truth[p] != "" {
				ask = append(ask, p)
			}
		}
		in.stories = append(in.stories, story)
		in.askable = append(in.askable, ask)
		in.truth = append(in.truth, truth)
	}
	return in
}

// appendSentences returns the sentences of append number app on session s.
func (in *inputs) appendSentences(s, app int) []string {
	return sentences(rand.New(rand.NewSource(seedFor(in.seed, fmt.Sprintf("append-%d", s), app))), in.w.appendLen)
}

func question(person int) string { return "where is " + people[person] + "?" }

// item is one request of the load stream.
type item struct {
	story   bool    // POST /v1/story (an append) rather than /v1/answer
	session int     // session index
	person  int     // answer: the person asked about
	app     int     // story: append number on the session; -1 for a set-up ingest
	gap     float64 // answer: unit-rate exponential gap before this arrival; 0 for appends
}

// stream yields the seed's request sequence. Arrival gaps are drawn at
// unit rate and scaled by the phase's rate, so the same seed sends the
// same requests in the same order whatever rates the ladder tries.
type stream struct {
	in      *inputs
	rng     *rand.Rand
	asked   []int
	appends []int
	queued  []item // appends not yet taken
	peek    *item  // next arrival, drawn but not yet taken
}

func newStream(in *inputs) *stream {
	return &stream{
		in:      in,
		rng:     rand.New(rand.NewSource(seedFor(in.seed, "stream", 0))),
		asked:   make([]int, in.w.sessions),
		appends: make([]int, in.w.sessions),
	}
}

// take returns the requests of one phase: arrivals at rate per second
// until dur has elapsed, each with its due time in ns from the phase
// start. An append is due together with the answer that triggered it
// and follows it on the session's connection.
func (st *stream) take(rate float64, dur time.Duration) []*req {
	w := st.in.w
	var out []*req
	t, limit := 0.0, dur.Seconds()
	for {
		for _, it := range st.queued {
			out = append(out, &req{it: it, due: int64(t * 1e9)})
		}
		st.queued = st.queued[:0]
		if st.peek == nil {
			s := st.rng.Intn(w.sessions)
			ask := st.in.askable[s]
			st.peek = &item{session: s, person: ask[st.rng.Intn(len(ask))], gap: st.rng.ExpFloat64()}
		}
		if t+st.peek.gap/rate >= limit {
			return out
		}
		it := *st.peek
		st.peek = nil
		t += it.gap / rate
		out = append(out, &req{it: it, due: int64(t * 1e9)})
		st.asked[it.session]++
		if w.appendEvery > 0 && st.asked[it.session]%w.appendEvery == 0 {
			st.queued = append(st.queued, item{story: true, session: it.session, app: st.appends[it.session]})
			st.appends[it.session]++
		}
	}
}
