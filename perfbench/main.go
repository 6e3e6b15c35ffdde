// Command perfbench is the repository's serving benchmark. It starts
// the real mnnfast-serve binary as a child process on loopback, builds
// its sessions in set-up, drives it from one process with an open-loop
// Poisson load on at most nproc connections, checks every answer
// against an exact in-process reference, and prints its metrics.
//
//	bash perfbench/run.sh --workload qa-short --seed 1 --seconds 20 --trace 0
//
// run.sh builds both binaries from source and passes -server and
// -workdir. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end ones; with -trace 1 they are the
// per-layer ones (see BENCHMARK.json at the repository root).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	server   string
	workdir  string
	spec     string
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "workload: qa-short, kb-large or kb-churn")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: stories, questions and arrival times")
	flag.IntVar(&c.seconds, "seconds", 20, "seconds of timed load")
	flag.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&c.server, "server", "", "path to the mnnfast-serve binary")
	flag.StringVar(&c.workdir, "workdir", ".bench_build", "directory for model files and spans")
	flag.StringVar(&c.spec, "spec", "BENCHMARK.json", "benchmark declaration: the metrics to print and their units")
	flag.Parse()
	if c.server == "" || c.seconds < 1 || (c.trace != 0 && c.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	w, err := findWorkload(c.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	env      map[string]any
	table    []string // human-readable lines printed before the JSON
	problems []string // why correct is false
}

func (r *result) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", name, v))
		v = -1
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) printf(format string, args ...any) {
	r.table = append(r.table, fmt.Sprintf(format, args...))
}

func (r *result) print(f *os.File) {
	for _, l := range r.table {
		fmt.Fprintln(f, l)
	}
	if len(r.problems) > 0 {
		r.Correct = false
	}
	for _, p := range r.problems {
		fmt.Fprintln(f, "check failed:", p)
	}
	env, _ := json.Marshal(r.env) // a map of strings and numbers always marshals
	fmt.Fprintf(f, "env %s\n", env)
	out, _ := json.Marshal(r) // likewise
	fmt.Fprintf(f, "%s\n", out)
}

// run performs one benchmark run of workload w.
func run(w *workload, c config) (*result, error) {
	sp, err := loadSpec(c.spec)
	if err != nil {
		return nil, err
	}
	in := newInputs(w, c.seed)
	dir := filepath.Join(c.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The model file the oracle loads, and the server too unless it
	// trains its own.
	model, corpus, err := trainModel()
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	var serverArgs []string
	if w.modelRows > 0 {
		widen(model, corpus, w.modelRows)
	}
	path := filepath.Join(dir, "model.gob")
	if err := saveModel(path, model, corpus); err != nil {
		return nil, fmt.Errorf("save model: %w", err)
	}
	if w.modelRows > 0 {
		serverArgs = append(serverArgs, "-model", path)
	}
	if w.topk {
		serverArgs = append(serverArgs, "-attention=topk")
	}
	orc, err := newOracle(in, path)
	if err != nil {
		return nil, err
	}
	if err := orc.selfCheck(); err != nil {
		return nil, err
	}

	b := &bench{w: w, cfg: c, in: in, orc: orc, args: serverArgs, nconn: min(runtime.NumCPU(), 8), m: map[string]float64{}}
	defer b.stop()
	res := &result{Metrics: map[string]metric{}, Correct: true}
	declared := sp.EndToEnd
	if c.trace == 1 {
		err = b.traced(res)
		declared = sp.PerLayer
	} else {
		err = b.endToEnd(res)
	}
	if err != nil {
		return nil, err
	}
	b.stop()
	b.check(res)
	if err := emit(res, declared, b.m); err != nil {
		return nil, err
	}
	// Metrics printed for reading but not declared.
	units := map[string]string{"accuracy": "1", "failed_frac": "1", "story_append_p90_ms": "ms"}
	for _, d := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		units[d.Name] = d.Unit
	}
	for _, name := range sortedKeys(b.m) {
		res.printf("%-40s %14.6g %s", name, b.m[name], units[name])
	}
	res.env = map[string]any{
		"workload": w.name, "seed": c.seed, "seconds": c.seconds, "trace": c.trace,
		"revision": b.revision, "host_cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"connections": b.nconn, "kernel_tier": b.tier, "go_version": runtime.Version(),
		"server_go_version": b.serverGo, "server_args": strings.Join(serverArgs, " "),
		"host_steal_frac": b.steal,
	}
	return res, nil
}

// bench holds one run's state.
type bench struct {
	w     *workload
	cfg   config
	in    *inputs
	orc   *oracle
	args  []string
	nconn int

	srv     *server
	g       *gen
	applied [][]int // the last server's confirmed appends per session (see gen.applied)
	stream  *stream
	phases  []*phase // load phases sent to the last server
	setups  []*phase // set-up phases of every server started
	setupS  []float64
	rss     []float64          // each server's peak RSS in MB at the end of its set-up
	m       map[string]float64 // every metric measured, declared or not

	revision, tier, serverGo string
	steal                    float64 // share of host CPU time stolen by the hypervisor during the timed load
}

func (b *bench) stop() {
	if b.g != nil {
		b.g.close()
		b.g = nil
	}
	if b.srv != nil {
		b.srv.stop()
		b.srv = nil
	}
}

// setup starts a server and ingests every session's story, then asks
// each session one question, which fills its embedding cache (and
// builds its top-k index). It returns the seconds from launch until the
// last of those answers returned.
func (b *bench) setup() (float64, error) {
	b.stop()
	t0 := time.Now()
	srv, err := startServer(b.cfg.server, b.args)
	if err != nil {
		return 0, err
	}
	b.srv = srv
	if err := srv.waitReady(60 * time.Second); err != nil {
		return 0, err
	}
	b.g = newGen(b.w, b.in, srv.addr, b.nconn)
	b.applied = b.g.applied
	ph := &phase{name: "setup", pinned: true}
	for s, story := range b.in.stories {
		for lo := 0; lo < len(story); lo += b.w.ingestChunk {
			hi := min(lo+b.w.ingestChunk, len(story))
			ph.reqs = append(ph.reqs, &req{it: item{story: true, session: s, app: -1}, body: storyRequest(s, story[lo:hi])})
		}
		ph.reqs = append(ph.reqs, &req{it: item{session: s, person: b.in.askable[s][0]}})
	}
	b.g.run(ph, time.Hour, false)
	elapsed := time.Since(t0).Seconds()
	b.phases = nil
	b.setups = append(b.setups, ph)
	if err := b.identify(); err != nil {
		return 0, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return 0, err
	}
	b.rss = append(b.rss, rss)
	return elapsed, nil
}

// identify checks that the served model is the oracle's and records the
// server's kernel tier, revision and Go version.
func (b *bench) identify() error {
	body, err := b.srv.get("/v1/healthz")
	if err != nil {
		return err
	}
	var h struct {
		Vocab, Answers, Hops, Dim int
		MaxSent                   int `json:"max_sentences"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	cfg := b.orc.exact.Cfg
	if h.Vocab != cfg.Vocab || h.Answers != cfg.Answers || h.Hops != cfg.Hops || h.Dim != cfg.Dim || h.MaxSent != cfg.MaxSent {
		return fmt.Errorf("oracle does not describe the served model: server %+v, oracle %+v", h, cfg)
	}
	sc, err := b.srv.scrape()
	if err != nil {
		return err
	}
	for k, v := range sc {
		if strings.HasPrefix(k, "mnnfast_kernel_tier{") && v == 1 {
			b.tier = labelValue(k, "tier")
		}
		if strings.HasPrefix(k, "mnnfast_build_info{") {
			b.revision, b.serverGo = labelValue(k, "revision"), labelValue(k, "go_version")
		}
	}
	return nil
}

func labelValue(key, label string) string {
	_, rest, ok := strings.Cut(key, label+`="`)
	if !ok {
		return ""
	}
	v, _, _ := strings.Cut(rest, `"`)
	return v
}

// load runs one open-loop phase at rate for dur on the current server.
func (b *bench) load(name string, rate float64, dur time.Duration, traced bool) *phase {
	ph := &phase{name: name, rate: rate, pinned: b.w.pinned(), reqs: b.stream.take(rate, dur)}
	b.g.run(ph, abortWait(b.w), traced)
	b.phases = append(b.phases, ph)
	return ph
}

// abortWait is how much arrival time may queue in the generator before
// a phase is abandoned as overloaded.
func abortWait(w *workload) time.Duration {
	return max(10*w.slo, 500*time.Millisecond)
}

const (
	setupRepeats = 5
	ladderStep   = 1.25
	ladderRungs  = 4
	warmup       = time.Second
)

// endToEnd measures the end-to-end metrics: set-up several times, then
// the reference rate, then the SLO ladder.
func (b *bench) endToEnd(res *result) error {
	for i := 0; i < setupRepeats; i++ {
		s, err := b.setup()
		if err != nil {
			return err
		}
		b.setupS = append(b.setupS, s)
	}
	b.stream = newStream(b.in)
	b.load("warmup", b.w.refRate, warmup, false)

	t0, s0 := cpuTicks()
	defer func() {
		t1, s1 := cpuTicks()
		b.steal = ratio(float64(s1-s0), float64(t1-t0))
	}()
	total := time.Duration(b.cfg.seconds) * time.Second
	refDur := total / 2
	rungDur := (total - refDur) / ladderRungs
	ref := b.load("ref", b.w.refRate, refDur, false)
	slo := b.w.slo.Seconds()
	rungs := []rung{judge(ref.rate, answerLatencies(ref), ref.aborted, slo)}
	for i := 0; i < ladderRungs; i++ {
		rate := nextRate(rungs, ladderStep)
		ph := b.load(fmt.Sprintf("ladder-%d", i+1), rate, rungDur, false)
		rungs = append(rungs, judge(rate, answerLatencies(ph), ph.aborted, slo))
	}
	rss, err := b.srv.peakRSSMB()
	if err != nil {
		return err
	}
	growth := max(0, rss-b.rss[len(b.rss)-1]) // what the load phases added to the last set-up's peak

	lat := answerLatencies(ref)
	res.printf("workload %s: %d answers at the reference rate %.0f/s over %v", b.w.name, len(lat), b.w.refRate, refDur)
	for _, r := range rungs {
		res.printf("  rung %8.1f/s  p99 %8.3f ms  pass %-5v backlog %v", r.rate, r.p99*1e3, r.pass, r.backlog)
	}
	b.m["setup_s"] = median(b.setupS)
	b.m["answer_p50_ms"] = median(lat) * 1e3
	b.m["answer_p99_ms"] = windowedP99(lat) * 1e3
	b.m["slo_qps"] = sloQPS(rungs, slo)
	var storyP99 []float64
	for _, ph := range b.setups {
		storyP99 = append(storyP99, quantile(storyLatencies(ph), 0.99))
	}
	b.m["story_p99_ms"] = median(storyP99) * 1e3
	if b.w.appendEvery > 0 {
		var app []float64
		for _, ph := range b.phases {
			app = append(app, storyLatencies(ph)...)
		}
		b.m["story_append_p90_ms"] = quantile(app, 0.9) * 1e3
	}
	b.m["server_rss_mb"] = median(b.rss) + growth
	res.printf("  per set-up: setup_s %.4v, peak RSS MB %.4v; the load added %.4g MB", b.setupS, b.rss, growth)
	return nil
}

// answerLatencies returns the latency in seconds of every answer the
// phase attempted, in due order, with +Inf for a failure.
func answerLatencies(ph *phase) []float64 {
	var out []float64
	for _, r := range ph.reqs {
		if r.it.story {
			continue
		}
		switch r.state {
		case stOK:
			out = append(out, float64(r.latency())/1e9)
		case stFailed:
			out = append(out, math.Inf(1))
		}
	}
	return out
}

// allPhases returns the set-up phases of every server, then the load
// phases of the last one.
func (b *bench) allPhases() []*phase {
	return append(append([]*phase(nil), b.setups...), b.phases...)
}

// storyLatencies returns the latency in seconds of the phase's POST
// /v1/story requests, timed from the moment a connection took each.
func storyLatencies(ph *phase) []float64 {
	var out []float64
	for _, r := range ph.reqs {
		if !r.it.story {
			continue
		}
		switch r.state {
		case stOK:
			out = append(out, float64(r.done-r.pickup)/1e9)
		case stFailed:
			out = append(out, math.Inf(1))
		}
	}
	return out
}

// check verifies every answer of every phase against the oracle and
// fills attempted, failed, accuracy and exact agreement.
func (b *bench) check(res *result) {
	all := b.allPhases()
	keys := map[oracleKey]bool{}
	for _, ph := range all {
		for _, r := range ph.reqs {
			if r.state == stOK && !r.it.story {
				keys[oracleKey{r.it.session, r.version, r.it.person}] = true
			}
		}
	}
	refs, err := b.orc.answers(keys, b.applied)
	if err != nil {
		res.problems = append(res.problems, err.Error())
		return
	}
	var answered, agree, truthN, right, wrong int
	reasons := map[string]int{}
	for _, ph := range all {
		for _, r := range ph.reqs {
			switch r.state {
			case stPending, stCancelled:
				continue
			case stFailed:
				res.Failed++
				reasons[r.why]++
			}
			res.Attempted++
			if r.state != stOK || r.it.story {
				continue
			}
			ref := refs[oracleKey{r.it.session, r.version, r.it.person}]
			answered++
			if r.index != ref.served || r.word != b.orc.corpus.AnswerWord(ref.served) {
				wrong++
			}
			if r.index == ref.exact {
				agree++
			}
			if ref.truth >= 0 {
				truthN++
				if r.index == ref.truth {
					right++
				}
			}
		}
	}
	if wrong > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d of %d answers differ from the unbatched reference", wrong, answered))
	}
	if answered == 0 {
		res.problems = append(res.problems, "no answer succeeded")
	}
	for why, n := range reasons {
		res.printf("  failed %d× : %s", n, why)
	}
	res.printf("answers checked %d (%d with bAbI ground truth), wrong %d; requests attempted %d, failed %d",
		answered, truthN, wrong, res.Attempted, res.Failed)
	b.m["exact_agreement"] = ratio(float64(agree), float64(answered))
	b.m["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	if truthN > 0 {
		b.m["accuracy"] = ratio(float64(right), float64(truthN))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
