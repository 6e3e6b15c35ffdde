package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Request outcomes.
const (
	stPending   = iota // not released (phase ended or aborted first)
	stOK               // 200 with a well-formed reply
	stFailed           // non-200, transport error, timeout or malformed reply
	stCancelled        // released, but the phase aborted before a connection took it
)

// req is one request of a phase and everything the generator learned
// about it. Times are ns from the phase start.
type req struct {
	it      item
	body    []byte // the whole HTTP/1.1 request
	due     int64
	release int64 // handed to the connection queue
	pickup  int64 // a connection started writing it
	done    int64 // reply read
	state   int
	why     string // failure reason
	index   int    // answer: the reply's answer index
	word    string // answer: the reply's answer word
	sents   int    // the reply's story sentence count
	version int    // appends applied to the session when it was sent
}

func (r *req) latency() int64 { return r.done - r.due }

func httpRequest(path string, session int, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: bench\r\nX-Session: s%d\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, session, len(body))
	b.Write(body)
	return b.Bytes()
}

func storyRequest(session int, sents []string) []byte {
	body, _ := json.Marshal(struct {
		Sentences []string `json:"sentences"`
	}{sents}) // a []string always marshals
	return httpRequest("/v1/story", session, body)
}

func answerRequest(session, person int) []byte {
	return httpRequest("/v1/answer", session, []byte(`{"question":"`+question(person)+`"}`))
}

// conn is one keep-alive HTTP/1.1 connection written and read by hand,
// so the client adds as little of its own time as it can.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

const requestTimeout = 10 * time.Second

// do sends one request and returns the status and body of its reply.
// Any error closes the connection; the next call redials.
func (c *conn) do(raw []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 16<<10)
	}
	fail := func(err error) (int, []byte, error) {
		c.close()
		return 0, nil, err
	}
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return fail(err)
	}
	if _, err := c.c.Write(raw); err != nil {
		return fail(err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return fail(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fail(err)
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, body, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// span is one traced interval, in ns from the run's trace epoch.
type span struct {
	name       string
	start, end int64
	parent     int // index into the same span list; -1 for a root
}

// gen is the open-loop load generator: one dispatcher releases requests
// at their due times onto a fixed set of connections.
type gen struct {
	w     *workload
	in    *inputs
	conns []*conn
	epoch time.Time // trace epoch

	// Per session, the append numbers the server confirmed, in order.
	// Only the session's own connection writes its entry, and phases
	// run one at a time.
	applied [][]int
}

func newGen(w *workload, in *inputs, addr string, nconn int) *gen {
	g := &gen{w: w, in: in, epoch: time.Now(), applied: make([][]int, w.sessions)}
	for i := 0; i < nconn; i++ {
		g.conns = append(g.conns, &conn{addr: addr})
	}
	return g
}

func (g *gen) close() {
	for _, c := range g.conns {
		c.close()
	}
}

// phase is one stretch of open-loop load at a fixed rate.
type phase struct {
	name    string
	rate    float64
	pinned  bool // each session's requests stay on one connection
	reqs    []*req
	aborted bool
	start   int64  // ns from the trace epoch
	spans   []span // traced phases only
}

// sleepUntil waits for the monotonic clock to reach t. time.Sleep
// overshoots by up to a millisecond on a loaded host, so it sleeps
// with nanosleep to just short of t and spins out the rest without
// yielding (a yield can queue it behind other goroutines).
func sleepUntil(t time.Time) {
	for {
		rem := time.Until(t)
		if rem <= 0 {
			return
		}
		if rem > 150*time.Microsecond {
			ts := syscall.NsecToTimespec(int64(rem - 100*time.Microsecond))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up just loops
		}
	}
}

// run drives one phase. A phase with a rate aborts when more requests
// are waiting than abortWait of arrivals: the rate is beyond what the
// server sustains, and what is still queued is cancelled, not sent.
// A phase without a rate (set-up) releases everything at once.
func (g *gen) run(ph *phase, abortWait time.Duration, traced bool) {
	for _, r := range ph.reqs {
		switch {
		case r.body != nil:
		case r.it.story:
			r.body = storyRequest(r.it.session, g.in.appendSentences(r.it.session, r.it.app))
		default:
			r.body = answerRequest(r.it.session, r.it.person)
		}
	}
	n := len(g.conns)
	// Pinned phases give each connection its own queue and send a
	// session's requests on one connection only; others share one queue.
	// Queues are sized to the phase, so the dispatcher never blocks.
	lanes := make([]chan *req, n)
	for i := range lanes {
		if ph.pinned || i == 0 {
			lanes[i] = make(chan *req, len(ph.reqs))
		} else {
			lanes[i] = lanes[0]
		}
	}
	// The generator's own garbage collection would show up as server
	// latency; a phase allocates a few MB at most, so collect now and
	// not during the phase.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var aborted atomic.Bool
	var finished atomic.Int64
	spans := make([][]span, n)
	var wg sync.WaitGroup
	t0 := time.Now().Add(2 * time.Millisecond)
	ph.start = t0.Sub(g.epoch).Nanoseconds()
	for i, c := range g.conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			for r := range lanes[i] {
				if aborted.Load() {
					r.state = stCancelled
					finished.Add(1)
					continue
				}
				r.pickup = time.Since(t0).Nanoseconds()
				g.send(c, r)
				r.done = time.Since(t0).Nanoseconds()
				finished.Add(1)
				if traced {
					spans[i] = appendRequestSpans(spans[i], r, ph.start)
				}
			}
		}(i, c)
	}
	limit := int64(math.MaxInt64)
	if ph.rate > 0 {
		limit = int64(math.Ceil(ph.rate*abortWait.Seconds())) + int64(2*n)
	}
	released := int64(0)
	for _, r := range ph.reqs {
		sleepUntil(t0.Add(time.Duration(r.due)))
		if released-finished.Load() > limit {
			aborted.Store(true)
			ph.aborted = true
			break
		}
		r.release = time.Since(t0).Nanoseconds()
		lane := 0
		if ph.pinned {
			lane = r.it.session % n
		}
		lanes[lane] <- r
		released++
	}
	for i := range lanes {
		if ph.pinned || i == 0 {
			close(lanes[i])
		}
	}
	wg.Wait()
	if traced {
		ph.spans = append(ph.spans, span{name: "phase." + ph.name, start: ph.start, end: time.Since(g.epoch).Nanoseconds(), parent: -1})
		for _, ss := range spans {
			off := len(ph.spans)
			for _, s := range ss {
				if s.parent < 0 {
					s.parent = 0
				} else {
					s.parent += off
				}
				ph.spans = append(ph.spans, s)
			}
		}
	}
}

// appendRequestSpans records one request as a root span (due → reply)
// and its three children: generator lateness, connection wait and the
// HTTP exchange. Parent indexes are relative to the worker's list.
func appendRequestSpans(ss []span, r *req, base int64) []span {
	root := len(ss)
	name := "request.answer"
	if r.it.story {
		name = "request.story"
	}
	return append(ss,
		span{name: name, start: base + r.due, end: base + r.done, parent: -1},
		span{name: "gen.late", start: base + r.due, end: base + r.release, parent: root},
		span{name: "gen.conn_wait", start: base + r.release, end: base + r.pickup, parent: root},
		span{name: "http." + name[len("request."):], start: base + r.pickup, end: base + r.done, parent: root},
	)
}

// answerReply is the shape of a /v1/answer reply; pointers tell a
// missing field from a zero one.
type answerReply struct {
	Answer    *string `json:"answer"`
	Index     *int    `json:"index"`
	Sentences *int    `json:"sentences"`
}

type storyReply struct {
	Sentences *int `json:"sentences"`
}

// send performs one request on c and records its outcome. For an
// answer it also checks that the reply counts the story version the
// generator expects the session to hold.
func (g *gen) send(c *conn, r *req) {
	s := r.it.session
	r.version = len(g.applied[s])
	status, body, err := c.do(r.body)
	switch {
	case err != nil:
		r.state, r.why = stFailed, err.Error()
		return
	case status != http.StatusOK:
		r.state, r.why = stFailed, "status "+strconv.Itoa(status)
		return
	}
	if r.it.story {
		var rep storyReply
		if err := json.Unmarshal(body, &rep); err != nil || rep.Sentences == nil {
			r.state, r.why = stFailed, "malformed story reply"
			return
		}
		r.state, r.sents = stOK, *rep.Sentences
		if r.it.app >= 0 { // an append, not a set-up ingest
			g.applied[s] = append(g.applied[s], r.it.app)
			r.version++
		}
		return
	}
	var rep answerReply
	if err := json.Unmarshal(body, &rep); err != nil || rep.Answer == nil || rep.Index == nil || rep.Sentences == nil {
		r.state, r.why = stFailed, "malformed answer reply"
		return
	}
	if want := g.w.rows + g.w.appendLen*r.version; *rep.Sentences != want {
		r.state, r.why = stFailed, fmt.Sprintf("reply counts %d story sentences, want %d", *rep.Sentences, want)
		return
	}
	r.state, r.index, r.word, r.sents = stOK, *rep.Index, *rep.Answer, *rep.Sentences
}
