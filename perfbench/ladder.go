package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"

	asc "repro"
	"repro/client"
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/pool"
)

const (
	// rounds each sample job is replayed at every layer; compileRounds for
	// the cheap compile layer.
	rounds        = 3
	compileRounds = 5
	// minLanes is the smallest gang the ladder builds: a group with fewer
	// jobs repeats them.
	minLanes = 4
)

// ladderResult is what the replays measured beside their spans.
type ladderResult struct {
	attempted, failed int64
	errs, mismatch    []string

	model               model   // the asc runs of the first round
	runNs, replayNs     float64 // sums over the sample of per-job medians
	refCycles, refInsts int64
	peOps               float64
	jobs, sharded       int
	serverSelf          []float64 // per job, ns
	snapshotBytes       []float64
	gangNs, soloNs      float64
	laneCycles          int64
	lanes, peeled       int
	served, cacheHits   int64
	poolHits, retries   int64
}

// note counts a server result toward the cache and pool hit ratios.
func (lr *ladderResult) note(r *client.RunResult) {
	lr.served++
	if r.ProgramCacheHit {
		lr.cacheHits++
	}
	if r.PoolHit {
		lr.poolHits++
	}
}

func (lr *ladderResult) mismatchf(format string, args ...any) {
	if len(lr.mismatch) < 8 {
		lr.mismatch = append(lr.mismatch, fmt.Sprintf(format, args...))
	}
}

// sampleJob is a ladder job with its reference run and per-layer timings.
type sampleJob struct {
	*job
	ref  *outcome
	prog *asc.Program
	// median times of this job's calls, ns
	run, replay, get, load, put, handler float64
}

// runLadder replays the workload's sample jobs through every layer the
// benchmark can call, one layer at a time, recording a span per call:
// compile and decode, the asc facade and core, the functional machine,
// the warm pool, the in-process server handler, loopback HTTP, the gateway
// and the gang engine. Every replay is checked against a direct run of the
// same job.
func runLadder(w workload, rec *recorder) (*ladderResult, error) {
	lr := &ladderResult{}
	ref := newReference(true)
	defer ref.close()
	var groups [][]*sampleJob
	var sample []*sampleJob
	for _, g := range w.ladder() {
		var sg []*sampleJob
		for _, j := range g {
			lr.attempted++
			out, err := ref.run(j)
			if err != nil {
				// Known-failing jobs are counted and left out of the layer
				// splits, which describe jobs that run.
				lr.failed++
				lr.errs = append(lr.errs, err.Error())
				continue
			}
			prog, err := compileASC(j)
			if err != nil {
				return nil, err
			}
			sj := &sampleJob{job: j, ref: out, prog: prog}
			sg = append(sg, sj)
			sample = append(sample, sj)
		}
		if len(sg) > 0 {
			groups = append(groups, sg)
		}
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("ladder: no sample job runs")
	}
	trace := int64(1) << 50
	next := func() int64 { trace++; return trace }

	if err := ladderCompile(rec, sample, next); err != nil {
		return nil, err
	}
	for _, sj := range sample {
		if err := ladderASC(rec, lr, sj, next()); err != nil {
			return nil, err
		}
		if err := ladderMachine(rec, lr, sj, next()); err != nil {
			return nil, err
		}
	}
	if err := ladderPool(rec, sample, next); err != nil {
		return nil, err
	}
	if err := ladderServe(rec, lr, sample, groups, next); err != nil {
		return nil, err
	}
	for _, g := range groups {
		if err := ladderGang(rec, lr, g, next()); err != nil {
			return nil, err
		}
	}
	if g, ok := w.(interface{ gatewayRetries() int64 }); ok {
		lr.retries += g.gatewayRetries()
	}
	for _, sj := range sample {
		lr.serverSelf = append(lr.serverSelf, sj.handler-sj.get-sj.load-sj.run-sj.put)
		lr.runNs += sj.run
		lr.replayNs += sj.replay
		lr.refCycles += sj.ref.stats.Cycles
		lr.refInsts += sj.ref.stats.Instructions
		lr.peOps += float64((sj.ref.stats.Parallel + sj.ref.stats.Reduction) * int64(sj.cfg.PEs))
	}
	return lr, nil
}

// timeOnce records fn as a root span named name and returns its duration
// in ns.
func timeOnce(rec *recorder, name string, trace int64, fn func() error) (float64, error) {
	id := rec.start(name, 0, trace)
	err := fn()
	rec.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return float64(rec.snapshotOne(id).dur()), nil
}

// timeRounds runs fn rounds times as spans named name and returns the
// median duration in ns.
func timeRounds(rec *recorder, name string, trace int64, fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < rounds; i++ {
		d, err := timeOnce(rec, name, trace, fn)
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
	}
	return median(ds), nil
}

// ladderCompile times assembly or ASCL compilation, decode and block
// building of every distinct program. A sample without ASCL programs also
// compiles the serve-run ASCL library, so every workload reports the ASCL
// compiler.
func ladderCompile(rec *recorder, sample []*sampleJob, next func() int64) error {
	seen := map[string]bool{}
	var srcs []*job
	hasASCL := false
	for _, sj := range sample {
		kind, src := sj.source()
		hasASCL = hasASCL || kind == "ascl"
		if !seen[kind+src] {
			seen[kind+src] = true
			srcs = append(srcs, sj.job)
		}
	}
	if !hasASCL {
		for _, a := range asclLibrary {
			srcs = append(srcs, &job{name: a.name, ascl: a.src})
		}
	}
	for _, j := range srcs {
		for r := 0; r < compileRounds; r++ {
			tr := next()
			root := rec.start("compile", 0, tr)
			src := j.asm
			if j.ascl != "" {
				if err := rec.timed("ascl.compile", root, tr, func() (err error) {
					_, src, err = asc.CompileASCL(j.ascl)
					return err
				}); err != nil {
					return err
				}
			}
			// An ASCL program's generated assembly is assembled again, so
			// every workload times the assembler.
			var p *asm.Program
			if err := rec.timed("asm.assemble", root, tr, func() (err error) {
				p, err = asm.Assemble(src)
				return err
			}); err != nil {
				return err
			}
			insts := p.Insts
			var dp *isa.DecodedProgram
			if err := rec.timed("isa.decode", root, tr, func() (err error) {
				dp, err = isa.DecodeProgram(insts)
				return err
			}); err != nil {
				return err
			}
			_ = rec.timed("isa.blocks", root, tr, func() error { isa.BuildBlocks(dp); return nil })
			rec.end(root)
		}
	}
	return nil
}

// ladderASC builds the job's processor through the facade, then resets,
// loads, runs and restores it each round.
func ladderASC(rec *recorder, lr *ladderResult, sj *sampleJob, tr int64) error {
	var p *asc.Processor
	if err := rec.timed("asc.new", 0, tr, func() (err error) {
		p, err = asc.New(sj.cfg, sj.prog)
		return err
	}); err != nil {
		return err
	}
	var runs []float64
	for r := 0; r < rounds; r++ {
		root := rec.start("asc.job", 0, tr)
		if err := rec.timed("asc.reset", root, tr, func() error {
			if err := p.Reset(); err != nil {
				return err
			}
			if err := p.LoadLocalMem(sj.local); err != nil {
				return err
			}
			return p.LoadScalarMem(sj.scalar)
		}); err != nil {
			return err
		}
		var st asc.Stats
		id := rec.start("core.run", root, tr)
		st, err := p.Run(runLimit)
		rec.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", sj.name, err)
		}
		runs = append(runs, float64(rec.snapshotOne(id).dur()))
		if r == 0 {
			var got, want model
			got.addASC(st)
			want.addCore(sj.ref.stats)
			lr.model.add(got)
			if got != want {
				lr.mismatchf("%s: asc run model %+v, direct core run %+v", sj.name, got, want)
			}
			if !bytes.Equal(p.Snapshot(), sj.ref.snapshot) {
				lr.mismatchf("%s: asc run snapshot differs from the direct core run", sj.name)
			}
		}
		if err := rec.timed("machine.restore", root, tr, func() error { return p.Restore(sj.ref.snapshot) }); err != nil {
			return err
		}
		lr.snapshotBytes = append(lr.snapshotBytes, float64(len(sj.ref.snapshot)))
		rec.end(root)
	}
	sj.run = median(runs)
	return nil
}

// ladderMachine replays the job on the functional machine alone: the same
// program and data through machine.ExecDecoded with no timing model. It
// must reach the core run's final snapshot.
func ladderMachine(rec *recorder, lr *ladderResult, sj *sampleJob, tr int64) error {
	dp, err := decode(sj.job)
	if err != nil {
		return err
	}
	cc := coreConfig(sj.cfg)
	m, err := machine.NewDecoded(cc.Machine, dp)
	if err != nil {
		return err
	}
	defer m.Close()
	lr.jobs++
	if m.EngineParallelActive() {
		lr.sharded++
	}
	var n int64
	sj.replay, err = timeRounds(rec, "machine.replay", tr, func() error {
		m.Reset()
		if err := load(m, sj.local, sj.scalar); err != nil {
			return err
		}
		n, err = replayFunctional(m)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: %w", sj.name, err)
	}
	if n != sj.ref.stats.Instructions {
		lr.mismatchf("%s: functional replay executed %d instructions, core run %d", sj.name, n, sj.ref.stats.Instructions)
	}
	if !bytes.Equal(m.Snapshot(), sj.ref.snapshot) {
		lr.mismatchf("%s: functional replay snapshot differs from the core run", sj.name)
	}
	return nil
}

// replayFunctional runs the machine's program to completion, giving every
// active, unblocked thread one instruction per turn.
func replayFunctional(m *machine.Machine) (int64, error) {
	dp := m.Decoded()
	threads := m.Config().Threads
	var n int64
	for !m.Halted() {
		progressed := false
		for t := 0; t < threads && !m.Halted(); t++ {
			if !m.ThreadActive(t) {
				continue
			}
			pc := m.PC(t)
			if pc < 0 || pc >= dp.Len() {
				return n, fmt.Errorf("thread %d pc %d outside the program", t, pc)
			}
			d := dp.At(pc)
			if m.BlockedDecoded(t, d) {
				continue
			}
			if _, err := m.ExecDecoded(t, d); err != nil {
				return n, err
			}
			n++
			progressed = true
			if n > runLimit {
				return n, fmt.Errorf("functional replay exceeded %d instructions", runLimit)
			}
		}
		if !progressed {
			return n, fmt.Errorf("functional replay deadlocked")
		}
	}
	return n, nil
}

// ladderPool gets and puts a machine for every job from a warm pool, as the
// server does around a run.
func ladderPool(rec *recorder, sample []*sampleJob, next func() int64) error {
	pl := pool.New(minLanes)
	for _, sj := range sample {
		tr := next()
		var gets, loads, puts []float64
		for r := 0; r < rounds; r++ {
			var p *asc.Processor
			g, err := timeOnce(rec, "pool.get", tr, func() (err error) {
				p, _, err = pl.Get(sj.cfg, sj.prog)
				return err
			})
			if err != nil {
				return err
			}
			l, err := timeOnce(rec, "asc.load", tr, func() error {
				if err := p.LoadLocalMem(sj.local); err != nil {
					return err
				}
				return p.LoadScalarMem(sj.scalar)
			})
			if err != nil {
				return err
			}
			u, _ := timeOnce(rec, "pool.put", tr, func() error { pl.Put(p); return nil })
			gets, loads, puts = append(gets, g), append(loads, l), append(puts, u)
		}
		sj.get, sj.load, sj.put = median(gets), median(loads), median(puts)
	}
	return nil
}

// ladderServe sends the sample through a fresh ascd and ascgw: in-process
// handler calls, loopback /v1/run calls and gateway batches.
func ladderServe(rec *recorder, lr *ladderResult, sample []*sampleJob, groups [][]*sampleJob, next func() int64) error {
	// 1024-PE jobs with wide local-memory images need larger request
	// bodies than the defaults allow.
	st, err := newStack(true, 1<<30)
	if err != nil {
		return err
	}
	defer st.close()
	h := st.srv.Handler()
	serve := func(path string, body []byte) (*httptest.ResponseRecorder, error) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %s", path, rr.Code, rr.Body.String())
		}
		return rr, nil
	}
	for _, sj := range sample {
		tr := next()
		req := sj.request()
		body, err := json.Marshal(&req)
		if err != nil {
			return err
		}
		var raw []byte
		var ds []float64
		for r := 0; r < rounds; r++ {
			var rr *httptest.ResponseRecorder
			d, err := timeOnce(rec, "server.handler", tr, func() (err error) {
				rr, err = serve("/v1/run", body)
				return err
			})
			if err != nil {
				return err
			}
			ds = append(ds, d)
			raw = rr.Body.Bytes()
			var res client.RunResult
			if err := json.Unmarshal(raw, &res); err != nil {
				return err
			}
			lr.note(&res)
			if err := checkResult(&res, sj.ref, true); err != nil {
				lr.mismatchf("%s: in-process handler: %v", sj.name, err)
			}
		}
		sj.handler = median(ds)
		for r := 0; r < rounds; r++ {
			_ = rec.timed("client.json_encode", 0, tr, func() error { _, err := json.Marshal(&req); return err })
			var res client.RunResult
			_ = rec.timed("client.json_decode", 0, tr, func() error { return json.Unmarshal(raw, &res) })
		}
	}

	st.tr.rec.Store(rec)
	defer st.tr.rec.Store(nil)
	c, tt := st.client(st.srvHS.URL)
	for _, sj := range sample {
		tr := next()
		for r := 0; r < rounds; r++ {
			sp := rec.start("client.run", 0, tr)
			tt.parent, tt.trace = sp, tr
			res, err := c.Run(context.Background(), sj.request())
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("%s: loopback run: %w", sj.name, err)
			}
			lr.note(res)
			if err := checkResult(res, sj.ref, true); err != nil {
				lr.mismatchf("%s: loopback run: %v", sj.name, err)
			}
		}
	}

	gc, gtt := st.client(st.gwHS.URL)
	for _, g := range groups {
		lanes := laneJobs(g)
		breq := client.BatchRequest{}
		for _, sj := range lanes {
			breq.Jobs = append(breq.Jobs, sj.request())
		}
		body, err := json.Marshal(&breq)
		if err != nil {
			return err
		}
		tr := next()
		for r := 0; r < rounds; r++ {
			var rr *httptest.ResponseRecorder
			if _, err := timeOnce(rec, "server.batch_handler", tr, func() (err error) {
				rr, err = serve("/v1/batch", body)
				return err
			}); err != nil {
				return err
			}
			var in client.BatchResult
			if err := json.Unmarshal(rr.Body.Bytes(), &in); err != nil {
				return err
			}
			checkBatch(lr, "in-process batch", lanes, &in)
			sp := rec.start("client.batch", 0, tr)
			gtt.parent, gtt.trace = sp, tr
			res, err := gc.RunBatch(context.Background(), breq)
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("gateway batch: %w", err)
			}
			checkBatch(lr, "gateway batch", lanes, res)
		}
	}
	lr.retries += st.gatewayRetries()
	return nil
}

// checkBatch compares every job of a batch result with its direct run.
func checkBatch(lr *ladderResult, where string, lanes []*sampleJob, res *client.BatchResult) {
	if len(res.Jobs) != len(lanes) {
		lr.mismatchf("%s: %d results for %d jobs", where, len(res.Jobs), len(lanes))
		return
	}
	for i, jr := range res.Jobs {
		if jr.Result == nil {
			lr.mismatchf("%s: %s failed: %s", where, lanes[i].name, jr.Error)
			continue
		}
		lr.note(jr.Result)
		if err := checkResult(jr.Result, lanes[i].ref, false); err != nil {
			lr.mismatchf("%s: %s: %v", where, lanes[i].name, err)
		}
	}
}

// laneJobs is a same-program group as gang lanes: the group itself, or its
// jobs repeated up to minLanes.
func laneJobs(g []*sampleJob) []*sampleJob {
	out := slices.Clone(g)
	for i := 0; len(out) < minLanes; i++ {
		out = append(out, g[i%len(g)])
	}
	return out
}

// ladderGang runs a same-program group as one gang, resuming peeled lanes
// solo from their snapshots as the server does, and compares every lane
// with the direct run of its job.
func ladderGang(rec *recorder, lr *ladderResult, g []*sampleJob, tr int64) error {
	lanes := laneJobs(g)
	cfg, prog := lanes[0].cfg, lanes[0].prog
	gang, err := asc.NewGang(cfg, prog, len(lanes))
	if err != nil {
		return fmt.Errorf("%s: %w", lanes[0].name, err)
	}
	solo, err := asc.New(cfg, prog)
	if err != nil {
		return err
	}
	for r := 0; r < rounds; r++ {
		if err := gang.Reset(); err != nil {
			return err
		}
		for i, sj := range lanes {
			if err := gang.LoadLocalMem(i, sj.local); err != nil {
				return err
			}
			if err := gang.LoadScalarMem(i, sj.scalar); err != nil {
				return err
			}
		}
		root := rec.start("gang.job", 0, tr)
		id := rec.start("gang.run", root, tr)
		res := gang.Run(runLimit)
		rec.end(id)
		lr.gangNs += float64(rec.snapshotOne(id).dur())
		for i, lane := range res {
			sj := lanes[i]
			lr.lanes++
			lr.laneCycles += sj.ref.stats.Cycles
			lr.soloNs += sj.run
			switch {
			case lane.Err != nil:
				return fmt.Errorf("%s: gang lane %d: %w", sj.name, i, lane.Err)
			case lane.Peeled:
				lr.peeled++
				id := rec.start("machine.restore", root, tr)
				err := solo.Restore(lane.Snapshot)
				rec.end(id)
				if err != nil {
					return err
				}
				lr.gangNs += float64(rec.snapshotOne(id).dur())
				lr.snapshotBytes = append(lr.snapshotBytes, float64(len(lane.Snapshot)))
				id = rec.start("gang.resume", root, tr)
				_, err = solo.Run(runLimit)
				rec.end(id)
				if err != nil {
					return fmt.Errorf("%s: resumed lane %d: %w", sj.name, i, err)
				}
				lr.gangNs += float64(rec.snapshotOne(id).dur())
				if !bytes.Equal(solo.Snapshot(), sj.ref.snapshot) {
					lr.mismatchf("%s: peeled lane %d resumed to a different state than the direct run", sj.name, i)
				}
			default:
				if lane.Stats.Cycles != sj.ref.stats.Cycles || !bytes.Equal(gang.Snapshot(i), sj.ref.snapshot) {
					lr.mismatchf("%s: gang lane %d differs from the direct run", sj.name, i)
				}
			}
		}
		rec.end(root)
	}
	return nil
}
