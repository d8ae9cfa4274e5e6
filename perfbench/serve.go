package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	asc "repro"
	"repro/client"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/server"
)

const (
	servePEs = 16
	// batchJobs jobs make one batch. Each client has distinctBatches
	// batch inputs, the fourth one data dependent, and cycles through them.
	batchJobs       = 32
	distinctBatches = 4
	// sumLoopN and respLoopN set the loop counts of the two batch kernels
	// so that each job simulates at least 1e4 cycles.
	sumLoopN  = 600
	respLoopN = 80
	// respLanesPeeling lanes of a data-dependent batch get one responder
	// more than the rest, so they diverge and peel off the gang. They are
	// never the first lane, which the gang follows as its leader, so the
	// rest stay in lockstep.
	respLanesPeeling = 4
)

var (
	serverSpans  = map[string]string{"/v1/run": "server.handler", "/v1/batch": "server.batch_handler"}
	gatewaySpans = map[string]string{"/v1/run": "gateway.handler", "/v1/batch": "gateway.batch_handler"}
)

// asclLibrary is the ASCL part of the serve-run program mix. Each reads one
// value per PE from local word 0.
var asclLibrary = []struct{ name, src string }{
	{"ascl-sum-max", `parallel v = pread(0);
write(0, sumval(v));
write(1, maxval(v));
write(2, countval(v > 0));
`},
	{"ascl-where-scale", `parallel v = pread(0);
where (v > 10) { v = v * 2; }
pwrite(1, v);
write(0, sumval(v));
`},
	{"ascl-foreach-neg", `parallel v = pread(0);
scalar acc = 0;
foreach (v < 0) { acc = acc + this(v); }
write(0, acc);
write(1, mindex(v));
`},
}

// sumLoopSrc is a looping kernel whose control flow ignores the PE data,
// so a batch of it stays in lockstep in one gang.
const sumLoopSrc = `parallel v = pread(0);
scalar n = read(0);
scalar acc = 0;
while (n > 0) {
    acc = acc + sumval(v + n);
    n = n - 1;
}
write(1, acc);
`

// respLoopSrc iterates over the responders v > t n times; the number of
// responders, and so the control flow, depends on the data.
const respLoopSrc = `parallel v = pread(0);
scalar t = read(0);
scalar n = read(1);
scalar acc = 0;
while (n > 0) {
    foreach (v > t) { acc = acc + this(v); }
    n = n - 1;
}
write(2, acc);
`

// stack is an in-process ascd, optionally fronted by an in-process ascgw,
// both on loopback HTTP behind the benchmark's timing wrappers.
type stack struct {
	tr    tracing
	srv   *server.Server
	srvHS *httptest.Server
	gw    *gateway.Gateway
	gwHS  *httptest.Server
	conns []*http.Transport
}

// newStack starts the tiers with default settings, except for a request
// body limit of maxBody bytes when it is not zero.
func newStack(withGateway bool, maxBody int64) (*stack, error) {
	st := &stack{srv: server.New(server.Config{MaxBodyBytes: maxBody})}
	st.srvHS = httptest.NewServer(&timedHandler{names: serverSpans, next: st.srv.Handler(), tr: &st.tr})
	if withGateway {
		gw, err := gateway.New(gateway.Config{Backends: []string{st.srvHS.URL}, MaxBodyBytes: maxBody})
		if err != nil {
			st.close()
			return nil, err
		}
		st.gw = gw
		st.gwHS = httptest.NewServer(&timedHandler{names: gatewaySpans, next: gw.Handler(), tr: &st.tr})
	}
	return st, nil
}

// client returns a client of url with its own connection.
func (st *stack) client(url string) (*client.Client, *timedTransport) {
	t := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	st.conns = append(st.conns, t)
	tt := &timedTransport{next: t, tr: &st.tr}
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: tt})), tt
}

func (st *stack) tracing() *tracing { return &st.tr }

// gatewayRetries reads the gateway's retry counter.
func (st *stack) gatewayRetries() int64 {
	if st.gw == nil {
		return 0
	}
	var b strings.Builder
	if err := st.gw.Registry().WritePrometheus(&b); err != nil {
		return 0
	}
	fams, err := obs.ParseText(b.String())
	if err != nil {
		return 0
	}
	var n float64
	for _, f := range fams {
		if f.Name == "asc_gw_retries_total" {
			for _, s := range f.Samples {
				n += s.Value
			}
		}
	}
	return int64(n)
}

func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st.gw != nil {
		_ = st.gw.Shutdown(ctx) // a timeout leaves nothing to clean up here
	}
	if st.gwHS != nil {
		st.gwHS.Close()
	}
	_ = st.srv.Shutdown(ctx)
	st.srvHS.Close()
	for _, t := range st.conns {
		t.CloseIdleConnections()
	}
}

// call sends one request (or batch) and checks what comes back: the span
// structure is job -> client.run|client.batch -> client.roundtrip -> the
// wrapped tiers.
type caller struct {
	c   *client.Client
	tt  *timedTransport
	seq int64
}

func (cl *caller) run(o *repOut, rec *recorder, req client.RunRequest, want *outcome) {
	cl.send(o, rec, "client.run", []*outcome{want}, true, func() ([]*client.RunResult, []string, error) {
		res, err := cl.c.Run(context.Background(), req)
		return []*client.RunResult{res}, []string{""}, err
	})
}

func (cl *caller) batch(o *repOut, rec *recorder, req client.BatchRequest, want []*outcome) {
	cl.send(o, rec, "client.batch", want, false, func() ([]*client.RunResult, []string, error) {
		res, err := cl.c.RunBatch(context.Background(), req)
		if err != nil {
			return nil, nil, err
		}
		if len(res.Jobs) != len(want) {
			return nil, nil, fmt.Errorf("batch answered %d of %d jobs", len(res.Jobs), len(want))
		}
		rs, es := make([]*client.RunResult, len(res.Jobs)), make([]string, len(res.Jobs))
		for i, j := range res.Jobs {
			rs[i], es[i] = j.Result, j.Error
		}
		return rs, es, nil
	})
}

func (cl *caller) send(o *repOut, rec *recorder, name string, want []*outcome, exactCycles bool,
	do func() ([]*client.RunResult, []string, error)) {
	cl.seq++
	o.attempted += int64(len(want))
	var root, sp int64
	if rec != nil {
		root = rec.start("job", 0, cl.seq)
		sp = rec.start(name, root, cl.seq)
		cl.tt.parent, cl.tt.trace = sp, cl.seq
	}
	t0 := time.Now()
	rs, es, err := do()
	d := time.Since(t0)
	if rec != nil {
		rec.end(sp)
	}
	ok := err == nil
	check := func() {
		for i, r := range rs {
			if r == nil {
				ok = false
				o.fail(false, "job failed: %s", es[i])
				continue
			}
			o.served++
			if r.ProgramCacheHit {
				o.cacheHits++
			}
			if r.PoolHit {
				o.poolHits++
			}
			o.model.addResult(r)
			if err := checkResult(r, want[i], exactCycles); err != nil {
				ok = false
				o.fail(true, "%v", err)
			}
		}
	}
	switch {
	case err != nil:
		for range want {
			o.fail(false, "%s: %v", name, err)
		}
	case rec != nil:
		id := rec.start("check", root, cl.seq)
		check()
		rec.end(id)
	default:
		check()
	}
	if rec != nil {
		rec.end(root)
	}
	if ok {
		o.lat = append(o.lat, d)
	}
}

// serveRun: one client connection sends POST /v1/run to one ascd.
type serveRun struct {
	st     *stack
	cl     *caller
	lib    []*job // the 15 library programs with their first data variant
	reqs   []client.RunRequest
	want   []*outcome
	unseen [][]string // per repetition, the sources of its unseen-program slots
	repNo  int
}

// buildServeRun lays out one repetition as sz.serveRounds rounds of 16
// requests: the 15 library programs, then one program the cache has not
// seen. Each round has its own data variant.
func buildServeRun(seed int64, reps int, sz sizes) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	// variants[v] holds the 15 library jobs with data variant v.
	variants := make([][]*job, sz.serveRounds)
	for v := range variants {
		for _, ins := range progs.Suite(servePEs, seed*1_000_003+int64(v)) {
			j := progsJob(ins, servePEs, 0)
			j.cfg.Threads = 0 // the prototype's 16 contexts, as the wire default
			variants[v] = append(variants[v], j)
		}
		for _, a := range asclLibrary {
			variants[v] = append(variants[v], &job{name: a.name, ascl: a.src,
				cfg: asc.Config{PEs: servePEs, Width: 16}, local: peValues(rng, servePEs, -100, 100)})
		}
		for _, j := range variants[v] {
			j.dumpScalar, j.dumpLocal = 128, 4
		}
	}
	w := &serveRun{lib: variants[0]}
	ref := newReference(false)
	defer ref.close()
	order := rng.Perm(len(w.lib))
	nAsm := len(w.lib) - len(asclLibrary)
	for r := 0; r < sz.serveRounds; r++ {
		for _, k := range order {
			if err := w.add(ref, variants[r][k]); err != nil {
				return nil, err
			}
		}
		// The unseen slot reuses an assembly kernel; its source gets a
		// unique trailing comment per repetition in rep.
		if err := w.add(ref, variants[r][r%nAsm]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < reps; i++ {
		var srcs []string
		for r := 0; r < sz.serveRounds; r++ {
			srcs = append(srcs, fmt.Sprintf("%s\n; unseen program %d.%d\n", w.reqs[r*16+15].Asm, i, r))
		}
		w.unseen = append(w.unseen, srcs)
	}
	st, err := newStack(false, 0)
	if err != nil {
		return nil, err
	}
	w.st = st
	c, tt := st.client(st.srvHS.URL)
	w.cl = &caller{c: c, tt: tt}
	return w, nil
}

// add appends a request and the direct run it is checked against.
func (w *serveRun) add(ref *reference, j *job) error {
	want, err := ref.run(j)
	if err != nil {
		return err
	}
	w.reqs = append(w.reqs, j.request())
	w.want = append(w.want, want)
	return nil
}

func (w *serveRun) rep(rec *recorder) repOut {
	var o repOut
	unseen := w.unseen[w.repNo%len(w.unseen)]
	w.repNo++
	for i, req := range w.reqs {
		if i%16 == 15 {
			req.Asm = unseen[i/16]
		}
		w.cl.run(&o, rec, req, w.want[i])
	}
	return o
}

func (w *serveRun) warm() repOut {
	var o repOut
	for i := range w.lib {
		w.cl.run(&o, nil, w.reqs[i], w.want[i])
	}
	return o
}

func (w *serveRun) ladder() [][]*job {
	var out [][]*job
	for _, j := range w.lib {
		out = append(out, []*job{j})
	}
	return out
}

func (w *serveRun) tracing() *tracing { return w.st.tracing() }
func (w *serveRun) close()            { w.st.close() }

// serveBatch: two client connections send 32-job same-program batches to
// one ascgw in front of one ascd.
type serveBatch struct {
	st      *stack
	batches int // per client and repetition
	clients []*batchClient
	sample  [][]*job // one batch of each kernel
}

type batchClient struct {
	*caller
	reqs []client.BatchRequest
	want [][]*outcome
}

func buildServeBatch(seed int64, _ int, sz sizes) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	st, err := newStack(true, 0)
	if err != nil {
		return nil, err
	}
	w := &serveBatch{st: st, batches: sz.batchesPerClient}
	ref := newReference(false)
	defer ref.close()
	for ci := 0; ci < 2; ci++ {
		c, tt := st.client(st.gwHS.URL)
		bc := &batchClient{caller: &caller{c: c, tt: tt, seq: int64(ci) << 40}}
		for b := 0; b < distinctBatches; b++ {
			var jobs []*job
			if b%4 == 3 {
				jobs = respLoopBatch(rng)
			} else {
				jobs = sumLoopBatch(rng)
			}
			req := client.BatchRequest{}
			var want []*outcome
			for _, j := range jobs {
				o, err := ref.run(j)
				if err != nil {
					st.close()
					return nil, err
				}
				req.Jobs = append(req.Jobs, j.request())
				want = append(want, o)
			}
			bc.reqs = append(bc.reqs, req)
			bc.want = append(bc.want, want)
			if ci == 0 && (b == 0 || b == 3) {
				w.sample = append(w.sample, jobs)
			}
		}
		w.clients = append(w.clients, bc)
	}
	return w, nil
}

func sumLoopBatch(rng *rand.Rand) []*job {
	jobs := make([]*job, batchJobs)
	for i := range jobs {
		jobs[i] = &job{name: "sum-loop", ascl: sumLoopSrc, cfg: asc.Config{PEs: servePEs, Width: 16},
			local: peValues(rng, servePEs, -100, 100), scalar: []int64{sumLoopN}, dumpScalar: 4}
	}
	return jobs
}

// respLoopBatch draws one responder set for the batch; respLanesPeeling
// lanes get one extra responder.
func respLoopBatch(rng *rand.Rand) []*job {
	responder := make([]bool, servePEs)
	for _, pe := range rng.Perm(servePEs)[:6] {
		responder[pe] = true
	}
	extra := rng.Perm(batchJobs - 1)[:respLanesPeeling]
	jobs := make([]*job, batchJobs)
	for i := range jobs {
		local := make([][]int64, servePEs)
		for pe := range local {
			v := -rng.Int63n(100) // not a responder: v <= 0
			if responder[pe] {
				v = 1 + rng.Int63n(100)
			}
			local[pe] = []int64{v}
		}
		for _, e := range extra {
			if e+1 == i {
				for pe := range local {
					if !responder[pe] {
						local[pe][0] = 1 + rng.Int63n(100)
						break
					}
				}
			}
		}
		jobs[i] = &job{name: "responder-loop", ascl: respLoopSrc, cfg: asc.Config{PEs: servePEs, Width: 16},
			local: local, scalar: []int64{0, respLoopN}, dumpScalar: 4}
	}
	return jobs
}

func (w *serveBatch) rep(rec *recorder) repOut {
	return w.each(func(bc *batchClient, o *repOut) {
		for i := 0; i < w.batches; i++ {
			k := i % len(bc.reqs)
			bc.batch(o, rec, bc.reqs[k], bc.want[k])
		}
	})
}

func (w *serveBatch) warm() repOut {
	return w.each(func(bc *batchClient, o *repOut) {
		bc.batch(o, nil, bc.reqs[0], bc.want[0])
		bc.batch(o, nil, bc.reqs[3], bc.want[3])
	})
}

// each runs fn for every client on its own goroutine and merges the
// outcomes.
func (w *serveBatch) each(fn func(*batchClient, *repOut)) repOut {
	outs := make([]repOut, len(w.clients))
	var wg sync.WaitGroup
	for i, bc := range w.clients {
		wg.Add(1)
		go func(i int, bc *batchClient) {
			defer wg.Done()
			fn(bc, &outs[i])
		}(i, bc)
	}
	wg.Wait()
	var o repOut
	for _, x := range outs {
		o.merge(x)
	}
	return o
}

func (w *serveBatch) ladder() [][]*job      { return w.sample }
func (w *serveBatch) tracing() *tracing     { return w.st.tracing() }
func (w *serveBatch) gatewayRetries() int64 { return w.st.gatewayRetries() }
func (w *serveBatch) close()                { w.st.close() }

// peValues draws one word per PE, uniform in [lo, hi].
func peValues(rng *rand.Rand, pes int, lo, hi int64) [][]int64 {
	rows := make([][]int64, pes)
	for i := range rows {
		rows[i] = []int64{lo + rng.Int63n(hi-lo+1)}
	}
	return rows
}
