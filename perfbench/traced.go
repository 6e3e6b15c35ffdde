package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"mnnfast/internal/obs"
)

// Metric families scraped from /v1/metrics.
const (
	famHTTP  = "mnnfast_http_request_duration_seconds"
	famStage = "mnnfast_stage_duration_seconds"
	famBatch = "mnnfast_batch_size"
	famQueue = "mnnfast_batch_queue_wait_seconds"
)

// traced is the per-layer run: one set-up, the reference rate untraced
// and then traced, a traced rung at the top of the ladder, and direct
// calls into each layer. The server's /v1/metrics is scraped between
// phases and each layer's numbers come from the diff of its phase.
func (b *bench) traced(res *result) error {
	s, err := b.setup()
	if err != nil {
		return err
	}
	b.setupS = []float64{s}
	epoch := b.g.epoch
	afterSetup, err := b.srv.scrape()
	if err != nil {
		return err
	}
	b.stream = newStream(b.in)
	b.load("warmup", b.w.refRate, warmup, false)

	t0, s0 := cpuTicks()
	total := time.Duration(b.cfg.seconds) * time.Second
	d := total * 7 / 20
	var sc [4]obs.Scrape
	if sc[0], err = b.srv.scrape(); err != nil {
		return err
	}
	plain := b.load("ref", b.w.refRate, d, false)
	if sc[1], err = b.srv.scrape(); err != nil {
		return err
	}
	ref := b.load("ref-traced", b.w.refRate, d, true)
	if sc[2], err = b.srv.scrape(); err != nil {
		return err
	}
	top := b.load("top", b.w.refRate*math.Pow(ladderStep, ladderRungs), total-2*d, true)
	if sc[3], err = b.srv.scrape(); err != nil {
		return err
	}
	t1, s1 := cpuTicks()
	b.steal = ratio(float64(s1-s0), float64(t1-t0))
	b.stop()

	m := b.m
	durs := func(ph *phase, name string) []float64 {
		var out []float64
		for _, s := range ph.spans {
			if s.name == name {
				out = append(out, float64(s.end-s.start)/1e9)
			}
		}
		return out
	}
	lat := durs(ref, "request.answer")
	p50 := median(lat)
	m["gen.late_p99_ms"] = quantile(durs(ref, "gen.late"), 0.99) * 1e3
	m["gen.conn_wait_p50_ms"] = median(durs(ref, "gen.conn_wait")) * 1e3

	win := sc[2].Sub(sc[1]) // the traced reference phase
	answers := win.Value(`mnnfast_http_requests_total{handler="answer"}`)
	m["server.answer_handler_p50_us"] = win.Quantile(famHTTP, `handler="answer"`, 0.5) * 1e6
	m["server.answer_handler_p99_us"] = win.Quantile(famHTTP, `handler="answer"`, 0.99) * 1e6
	// The handler histogram's buckets are a factor of two wide, so a
	// difference of p50s would be interpolation error; the residual
	// is the difference of exact means instead.
	handlerMean := ratio(win.Value(obs.HistKey(famHTTP, "sum", `handler="answer"`)), answers)
	m["server.http_residual_us"] = (mean(durs(ref, "http.answer")) - handlerMean) * 1e6
	m["server.story_handler_p99_us"] = sc[3].Quantile(famHTTP, `handler="story"`, 0.99) * 1e6 // ingests and appends
	loadWin := sc[3].Sub(sc[0])
	hits, misses := loadWin.Value("mnnfast_embedding_cache_hits_total"), loadWin.Value("mnnfast_embedding_cache_misses_total")
	m["server.cache_hit_ratio"] = ratio(hits, hits+misses)

	m["batcher.batch_size_mean"] = ratio(win.Value(obs.HistKey(famBatch, "sum", "")), win.Value(obs.HistKey(famBatch, "count", "")))
	m["batcher.queue_wait_p50_us"] = win.Quantile(famQueue, "", 0.5) * 1e6
	m["batcher.queue_wait_p99_us"] = win.Quantile(famQueue, "", 0.99) * 1e6
	queueMean := ratio(win.Value(obs.HistKey(famQueue, "sum", "")), win.Value(obs.HistKey(famQueue, "count", "")))
	topWin := sc[3].Sub(sc[2])
	topAnswers := float64(len(answerLatencies(top)))
	m["batcher.shed_frac"] = ratio(topWin.Value("mnnfast_batch_shed_total"), topAnswers)
	m["batcher.expired_frac"] = ratio(topWin.Value("mnnfast_batch_expired_total"), topAnswers)

	stageSum := func(sc obs.Scrape, stage string) float64 {
		return sc.Value(obs.HistKey(famStage, "sum", `stage="`+stage+`"`))
	}
	stageCount := func(sc obs.Scrape, stage string) float64 {
		return sc.Value(obs.HistKey(famStage, "count", `stage="`+stage+`"`))
	}
	m["memnn.vectorize_us"] = ratio(stageSum(win, "vectorize"), stageCount(win, "vectorize")) * 1e6
	m["memnn.attention_us_per_answer"] = ratio(stageSum(win, "attention"), answers) * 1e6
	m["memnn.output_us"] = ratio(stageSum(win, "output"), answers) * 1e6
	// Set-up answers are exactly one cache miss per session, so the
	// embed stage there is story embedding (plus one question each).
	m["memnn.embed_ms"] = ratio(stageSum(afterSetup, "embed"), afterSetup.Value("mnnfast_embedding_cache_misses_total")) * 1e3
	all := sc[3]
	indexStage := ratio(stageSum(all, "index-build"), stageCount(all, "index-build")) * 1e3
	probed := win.Value("mnnfast_topk_probed_rows")
	m["sparse.probed_rows_per_answer"] = ratio(probed, answers)
	m["sparse.kept_frac"] = ratio(win.Value("mnnfast_topk_candidates"), probed)

	t := &timer{epoch: epoch}
	if err := layerTimes(t, b.orc, m); err != nil {
		return err
	}
	if indexStage > 0 {
		res.printf("index build: %.3f ms by the server's index-build stage, %.3f ms by direct BuildStoryIndex",
			indexStage, m["sparse.index_build_ms"])
	}
	cfg := b.orc.exact.Cfg
	bytesPerHop := 2 * float64(b.w.rows) * float64(cfg.Dim) * 4
	m["core.attention_bytes_per_hop"] = bytesPerHop
	m["core.attention_gbps"] = ratio(bytesPerHop, m["memnn.attention_us_per_answer"]/float64(cfg.Hops)*1e-6) / 1e9
	m["trace.overhead_frac"] = (p50 - median(answerLatencies(plain))) / median(answerLatencies(plain))

	// Where the traced reference p50 went: the generator's parts are
	// medians of their spans, the server's are exact per-answer means
	// from its stage sums. Medians and means do not add, so the
	// unaccounted residual also absorbs that difference.
	parts := []struct {
		name string
		ms   float64
	}{
		{"late", median(durs(ref, "gen.late")) * 1e3},
		{"conn_wait", m["gen.conn_wait_p50_ms"]},
		{"http_residual", m["server.http_residual_us"] / 1e3},
		{"vectorize", m["memnn.vectorize_us"] / 1e3},
		{"queue_wait", queueMean * 1e3},
		{"embed", ratio(stageSum(win, "embed"), answers) * 1e3},
		{"attention", m["memnn.attention_us_per_answer"] / 1e3},
		{"output", m["memnn.output_us"] / 1e3},
	}
	m["breakdown.answer_p50_ms"] = p50 * 1e3
	rest := p50 * 1e3
	res.printf("breakdown of the traced answer p50 (%.3f ms, %d answers):", p50*1e3, len(lat))
	for _, p := range parts {
		m["breakdown."+p.name+"_ms"] = p.ms
		rest -= p.ms
		res.printf("  %-14s %9.4f ms", p.name, p.ms)
	}
	m["breakdown.unaccounted_ms"] = rest
	res.printf("  %-14s %9.4f ms", "unaccounted", rest)

	self := spanSelf(ref.spans, top.spans, t.spans)
	res.printf("span self time (traced phases and direct calls):")
	for _, n := range sortedKeys(self) {
		res.printf("  %-36s %12.3f ms", n, float64(self[n])/1e6)
	}
	return writeSpans(filepath.Join(b.cfg.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.cfg.seed)),
		[][]span{ref.spans, top.spans, t.spans})
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the kept spans, one JSON object per line.
func writeSpans(path string, lists [][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for li, spans := range lists {
		for _, s := range spans {
			rec := struct {
				List    int    `json:"list"`
				Name    string `json:"name"`
				StartNS int64  `json:"start_ns"`
				EndNS   int64  `json:"end_ns"`
				Parent  int    `json:"parent"`
			}{li, s.name, s.start, s.end, s.parent}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
