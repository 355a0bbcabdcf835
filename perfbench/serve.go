package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// The serve workload runs the daemon in process — serve.NewManager and
// serve.NewServer on a loopback listener, a pool of nproc workers, no disk
// cache and an in-memory cache smaller than the job catalogue — and drives
// it with nproc closed-loop clients, each POSTing /v1/jobs?wait=1 and
// waiting for the reply before sending the next job of the seeded stream.

// serveCacheEntries is the daemon's in-memory cache size, a sixth of the
// catalogue.
const serveCacheEntries = 128

// serveWarmupJobs are played before timing starts, so the cache is full.
const serveWarmupJobs = 1000

// daemon is an in-process serve daemon on a loopback port.
type daemon struct {
	m    *serve.Manager
	srv  *http.Server
	url  string
	done chan error // Serve's return value
}

// startDaemon starts the manager and listener and waits for /healthz. wrap,
// when non-nil, wraps the daemon's handler (tests inject faults with it).
func startDaemon(workers int, wrap func(http.Handler) http.Handler) (*daemon, error) {
	m, err := serve.NewManager(serve.Options{Workers: workers, CacheEntries: serveCacheEntries})
	if err != nil {
		return nil, err
	}
	var h http.Handler = serve.NewServer(m)
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{m: m, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.srv.Serve(ln) }()
	c := &http.Client{Transport: &http.Transport{}}
	defer c.CloseIdleConnections()
	for tries := 0; ; tries++ {
		resp, err := c.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
		if tries == 50 {
			_ = d.stop()
			return nil, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop shuts the listener down and waits for Serve to return. Every client
// waits for its reply, so no job is still running.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// jobRecord is one finished submission.
type jobRecord struct {
	latency float64 // seconds, submit to reply read
	cached  bool
}

// resultBook remembers the first result served for each content address,
// so later replies for the same address are compared with it.
type resultBook struct {
	mu     sync.Mutex
	result map[string][]byte // hash -> compact result document
	body   map[string][]byte // hash -> request body that produced it
}

func newResultBook() *resultBook {
	return &resultBook{result: map[string][]byte{}, body: map[string][]byte{}}
}

// record returns false if hash already has a different result.
func (b *resultBook) record(hash string, body, result []byte) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev, ok := b.result[hash]; ok {
		return bytes.Equal(prev, result)
	}
	b.result[hash], b.body[hash] = result, body
	return true
}

// reply is the part of the daemon's job status the clients read.
type reply struct {
	Hash   string          `json:"hash"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// loadGen plays the stream against a daemon with nproc closed-loop clients.
type loadGen struct {
	d       *daemon
	st      *stream
	book    *resultBook
	r       *report
	clients []*http.Client
	next    atomic.Int64 // next stream position

	mu         sync.Mutex
	hits, miss int
	marks      []meter // a meter reading at every batch completions
	done       atomic.Int64
	batch      int64 // jobs per unit of work
}

func newLoadGen(d *daemon, st *stream, r *report, clients int) *loadGen {
	g := &loadGen{d: d, st: st, book: newResultBook(), r: r}
	for i := 0; i < clients; i++ {
		// One connection per client: no more connections than clients.
		g.clients = append(g.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	return g
}

func (g *loadGen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// play runs the clients until the stream reaches position limit or until
// the deadline passes (zero: no deadline), and returns every job's record.
func (g *loadGen) play(limit int64, until time.Time, tr *tracer) []jobRecord {
	var wg sync.WaitGroup
	per := make([][]jobRecord, len(g.clients))
	for ci, c := range g.clients {
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			for {
				if !until.IsZero() && time.Now().After(until) {
					return
				}
				pos := g.next.Add(1) - 1
				if pos >= limit || pos >= int64(len(g.st.picks)) {
					return
				}
				var rec jobRecord
				_ = tr.do(0, "serve", "serve.POST /v1/jobs", func(int) error {
					rec = g.submit(c, g.st.jobs[g.st.picks[pos]].body)
					return nil
				})
				per[ci] = append(per[ci], rec)
				if g.done.Add(1)%g.batch == 0 {
					g.mu.Lock()
					g.marks = append(g.marks, startMeter())
					g.mu.Unlock()
				}
			}
		}(ci, c)
	}
	wg.Wait()
	var out []jobRecord
	for _, recs := range per {
		out = append(out, recs...)
	}
	return out
}

// submit POSTs one job, waits for its result and checks the reply: a 200
// with a done status and a result that is byte-identical to the first
// result served for the same content address.
func (g *loadGen) submit(c *http.Client, body []byte) jobRecord {
	start := time.Now()
	resp, err := c.Post(g.d.url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		g.r.fail(fmt.Errorf("serve: POST: %w", err))
		return jobRecord{latency: time.Since(start).Seconds()}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec := jobRecord{latency: time.Since(start).Seconds()}
	if err != nil || resp.StatusCode != http.StatusOK || len(data) == 0 {
		g.r.check(false, "serve: reply %d with %d body bytes (read error %v) for %s", resp.StatusCode, len(data), err, body)
		return rec
	}
	var rep reply
	var compact bytes.Buffer
	if err := json.Unmarshal(data, &rep); err != nil || rep.Status != "done" || len(rep.Result) == 0 ||
		json.Compact(&compact, rep.Result) != nil {
		g.r.check(false, "serve: reply is not a done job with a result (%v): %.200s", err, data)
		return rec
	}
	rec.cached = rep.Cached
	same := g.book.record(rep.Hash, body, compact.Bytes())
	g.r.check(same, "serve: result for %.12s (cached=%t) differs from the first one served for its address", rep.Hash, rep.Cached)
	g.mu.Lock()
	if rep.Cached {
		g.hits++
	} else {
		g.miss++
	}
	g.mu.Unlock()
	return rec
}

// checkSample re-runs a seeded sample of the served jobs in process with
// serve.RunJob and compares the result bytes with what the daemon served.
func (g *loadGen) checkSample(seed int64, n int) {
	g.book.mu.Lock()
	hashes := make([]string, 0, len(g.book.result))
	for h := range g.book.result {
		hashes = append(hashes, h)
	}
	g.book.mu.Unlock()
	sort.Strings(hashes)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(hashes), func(i, j int) { hashes[i], hashes[j] = hashes[j], hashes[i] })
	for _, h := range hashes[:min(n, len(hashes))] {
		spec, err := serve.DecodeRaw(g.book.body[h])
		if err != nil {
			g.r.fail(err)
			continue
		}
		_, hash, data, err := serve.RunJob(spec)
		if err != nil {
			g.r.fail(err)
			continue
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			g.r.fail(err)
			continue
		}
		g.r.check(hash == h && bytes.Equal(compact.Bytes(), g.book.result[h]),
			"serve: in-process serve.RunJob result for %.12s differs from the daemon's", h)
	}
}

// checkAccounting checks that every submission was a hit or a miss, by the
// clients' count and by the daemon's counters.
func (g *loadGen) checkAccounting(submitted int) {
	g.mu.Lock()
	hits, miss := g.hits, g.miss
	g.mu.Unlock()
	dHits := int(g.d.m.Counter("clmpi_serve_cache_hits_total"))
	dMiss := int(g.d.m.Counter("clmpi_serve_cache_misses_total"))
	dSub := int(g.d.m.Counter("clmpi_serve_jobs_submitted_total"))
	g.r.check(hits+miss == submitted && dHits+dMiss == dSub && dSub == submitted && dHits == hits,
		"serve: hits %d + misses %d != %d submissions (daemon: %d + %d of %d)", hits, miss, submitted, dHits, dMiss, dSub)
}

// promValue reads one unlabeled sample from Prometheus text exposition.
func promValue(text, name string) float64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

// phaseStats reduces a timed phase.
type phaseStats struct {
	jobs                 int
	elapsed              float64
	batch                int64
	batchWall, batchCPU  []float64 // per batch of completions
	lat, hitLat, missLat []float64 // per job, milliseconds
}

// timed plays the stream for d and times it per batch of jobs.
func (g *loadGen) timed(d time.Duration, tr *tracer) phaseStats {
	g.mu.Lock()
	g.marks = []meter{startMeter()}
	g.mu.Unlock()
	g.done.Store(0)
	recs := g.play(int64(len(g.st.picks)), time.Now().Add(d), tr)
	ps := phaseStats{batch: g.batch}
	g.mu.Lock()
	marks := g.marks
	g.mu.Unlock()
	ps.elapsed = time.Since(marks[0].wall).Seconds()
	for i := 1; i < len(marks); i++ {
		ps.batchWall = append(ps.batchWall, marks[i].wall.Sub(marks[i-1].wall).Seconds())
		ps.batchCPU = append(ps.batchCPU, (marks[i].cpu - marks[i-1].cpu).Seconds())
	}
	ps.jobs = len(recs)
	for _, rec := range recs {
		ps.lat = append(ps.lat, rec.latency*1e3)
		if rec.cached {
			ps.hitLat = append(ps.hitLat, rec.latency*1e3)
		} else {
			ps.missLat = append(ps.missLat, rec.latency*1e3)
		}
	}
	return ps
}

// plus pools two phases' jobs and times (not their batches).
func (ps phaseStats) plus(q phaseStats) phaseStats {
	return phaseStats{
		jobs: ps.jobs + q.jobs, elapsed: ps.elapsed + q.elapsed, batch: q.batch,
		lat:     append(ps.lat, q.lat...),
		hitLat:  append(ps.hitLat, q.hitLat...),
		missLat: append(ps.missLat, q.missLat...),
	}
}

// perBatch scales a phase total to one unit of work.
func (ps phaseStats) perBatch(v float64) float64 {
	return v * float64(ps.batch) / float64(max(ps.jobs, 1))
}

func runServe(o options, r *report) error {
	st, err := generate(defaultGen(), o.seed)
	if err != nil {
		return err
	}
	// Set-up: start the manager and listener and wait for /healthz; 201
	// times, each from a collected heap, and the last daemon is kept.
	var setups []float64
	var d *daemon
	for i := 0; i < 201; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		runtime.GC()
		start := time.Now()
		if d, err = startDaemon(o.workers, o.serveWrap); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d daemon starts", len(setups)))
	g := newLoadGen(d, st, r, o.workers)
	g.batch = 1000
	if o.quick {
		g.batch = 10
	}
	defer g.close()

	warmup := int64(serveWarmupJobs)
	if o.quick {
		warmup = 200
	}
	warm := g.play(warmup, time.Time{}, nil)
	submitted := len(warm)
	setFigures := func(ps phaseStats, phase string) {
		n := fmt.Sprintf("%s, n=%d", phase, ps.jobs)
		p50 := median(ps.lat)
		p99, note := percentileOrTail(ps.lat, 99)
		r.set("job_p50_ms", p50, n)
		r.set("job_p99_ms", p99, phase+", "+note)
		r.set("jobs_per_s", float64(ps.jobs)/ps.elapsed, n)
	}

	if !o.trace {
		ps := g.timed(o.seconds, nil)
		submitted += ps.jobs
		if len(ps.batchWall) == 0 {
			return fmt.Errorf("serve: only %d jobs in %.2f s, not one batch of %d", ps.jobs, ps.elapsed, ps.batch)
		}
		unit := fmt.Sprintf("per batch of %d jobs, ", ps.batch)
		r.set("wall_s", median(ps.batchWall), unit+summarize(ps.batchWall).String())
		r.set("cpu_s", median(ps.batchCPU), unit+summarize(ps.batchCPU).String())
		setFigures(ps, "timed")
		r.set("serve.hit_ratio", float64(len(ps.hitLat))/float64(max(ps.jobs, 1)))
		r.set("max_rss_mb", maxRSSMB())
	} else {
		// Alternate untraced phases (the overhead baseline and the workload
		// figures) with traced phases inside profiled windows.
		const pairs = 4
		phase := o.seconds / (2 * pairs)
		tr := newTracer(fmt.Sprintf("serve/seed=%d", o.seed))
		t := newTraceRun(tr)
		var base, ps phaseStats
		var slotWait, pointSec float64
		for i := 0; i < pairs; i++ {
			base = base.plus(g.timed(phase, nil))
			before := d.m.MetricsText()
			if err := t.open(); err != nil {
				return err
			}
			ps = ps.plus(g.timed(phase, tr))
			if _, err := t.close(); err != nil {
				return err
			}
			after := d.m.MetricsText()
			slotWait += promValue(after, "clmpi_serve_slot_wait_seconds_sum") - promValue(before, "clmpi_serve_slot_wait_seconds_sum")
			pointSec += promValue(after, "clmpi_serve_point_seconds_sum") - promValue(before, "clmpi_serve_point_seconds_sum")
		}
		setFigures(base, "untraced")
		submitted += base.jobs + ps.jobs
		perJob := func(p phaseStats) float64 { return p.elapsed / float64(max(p.jobs, 1)) }
		r.set("trace_overhead_frac", perJob(ps)/perJob(base)-1,
			fmt.Sprintf("traced %.4f ms / untraced %.4f ms per job, %d phase pairs", perJob(ps)*1e3, perJob(base)*1e3, pairs))
		r.set("serve.hit_ratio", float64(len(ps.hitLat))/float64(max(ps.jobs, 1)), fmt.Sprintf("n=%d", ps.jobs))
		hp99, hnote := percentileOrTail(ps.hitLat, 99)
		mp99, mnote := percentileOrTail(ps.missLat, 99)
		r.set("serve.hit_p50_ms", median(ps.hitLat), fmt.Sprintf("n=%d", len(ps.hitLat)))
		r.set("serve.hit_p99_ms", hp99, hnote)
		r.set("serve.miss_p50_ms", median(ps.missLat), fmt.Sprintf("n=%d", len(ps.missLat)))
		r.set("serve.miss_p99_ms", mp99, mnote)
		unit := fmt.Sprintf("per %d jobs, registry histogram sum", g.batch)
		r.set("serve.slot_wait_s", ps.perBatch(slotWait), unit)
		r.set("serve.point_s", ps.perBatch(pointSec), unit)
		if err := finishTrace(o, r, t, float64(ps.jobs)/float64(g.batch)); err != nil {
			return err
		}
	}
	g.checkAccounting(submitted)
	g.checkSample(o.seed, 6)
	return d.stop()
}
