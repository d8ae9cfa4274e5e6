package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/progs"
)

// simJob is a job bound to the reusable processor it runs on.
type simJob struct {
	*job
	dp   *isa.DecodedProgram
	proc *core.Processor
}

// simWorkload drives core.Processor directly from one goroutine. Processors
// are reused across jobs through Reset (or SetDecoded, which resets), as a
// parameter sweep would reuse them.
type simWorkload struct {
	distinct []*simJob
	order    []*simJob // one repetition, in run order
	procs    []*core.Processor
	seq      int64 // trace id of the last job run
}

// buildSimMT is the paper's IPC-vs-threads experiment: MTReduction at 1, 2,
// 4, 8 and 16 threads on the 16-PE, 16-context prototype with arity 4.
func buildSimMT(seed int64, _ int, sz sizes) (workload, error) {
	w := &simWorkload{}
	for _, t := range []int{1, 2, 4, 8, 16} {
		j := progsJob(progs.MTReduction(16, t, sz.mtIters/t), 16, 16)
		if err := w.add(j, nil); err != nil {
			return nil, err
		}
	}
	w.shuffle(seed, sz.mtPasses)
	return w, nil
}

// buildSimWide runs every kernel of progs.Suite at 1024 PEs on the default
// engine. Kernels with the same machine geometry share one processor.
func buildSimWide(seed int64, _ int, sz sizes) (workload, error) {
	w := &simWorkload{}
	byKey := map[string]*core.Processor{}
	for _, ins := range progs.Suite(sz.widePEs, seed) {
		j := progsJob(ins, sz.widePEs, 1)
		if err := w.add(j, byKey); err != nil {
			return nil, err
		}
	}
	w.shuffle(seed, sz.widePasses)
	return w, nil
}

// add decodes a job and binds it to a processor: a new one, or the shared
// one for its geometry when shared is not nil.
func (w *simWorkload) add(j *job, shared map[string]*core.Processor) error {
	dp, err := decode(j)
	if err != nil {
		return err
	}
	p := shared[j.cfg.Key()]
	if p == nil {
		if p, err = core.NewDecoded(coreConfig(j.cfg), dp); err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		w.procs = append(w.procs, p)
		if shared != nil {
			shared[j.cfg.Key()] = p
		}
	}
	w.distinct = append(w.distinct, &simJob{job: j, dp: dp, proc: p})
	return nil
}

// shuffle lays out one repetition: passes copies of every job in an order
// drawn from the seed.
func (w *simWorkload) shuffle(seed int64, passes int) {
	for i := 0; i < passes; i++ {
		w.order = append(w.order, w.distinct...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(w.order), func(a, b int) {
		w.order[a], w.order[b] = w.order[b], w.order[a]
	})
}

func (w *simWorkload) rep(rec *recorder) repOut { return w.runJobs(w.order, rec) }

func (w *simWorkload) warm() repOut { return w.runJobs(w.distinct, nil) }

func (w *simWorkload) runJobs(jobs []*simJob, rec *recorder) repOut {
	var o repOut
	for _, sj := range jobs {
		w.seq++
		o.attempted++
		t0 := time.Now()
		var root int64
		if rec != nil {
			root = rec.start("job", 0, w.seq)
		}
		step := func(name string, fn func() error) error {
			if rec == nil {
				return fn()
			}
			return rec.timed(name, root, w.seq, fn)
		}
		p := sj.proc
		err := step("asc.reset", func() error {
			if p.Machine().Decoded() != sj.dp {
				p.SetDecoded(sj.dp)
			} else {
				p.Reset()
			}
			return load(p.Machine(), sj.local, sj.scalar)
		})
		var st core.Stats
		if err == nil {
			err = step("core.run", func() (err error) {
				st, err = p.Run(runLimit)
				return err
			})
			o.model.addCore(st)
		}
		if err == nil {
			if err = step("oracle.check", func() error { return sj.oracle(p.Machine()) }); err != nil {
				o.fail(true, "%v", err)
			}
		} else {
			o.fail(false, "%s: %v", sj.name, err)
		}
		if rec != nil {
			rec.end(root)
		}
		if err == nil {
			o.lat = append(o.lat, time.Since(t0))
		}
	}
	return o
}

func (w *simWorkload) ladder() [][]*job {
	var out [][]*job
	for _, sj := range w.distinct {
		out = append(out, []*job{sj.job})
	}
	return out
}

func (w *simWorkload) close() {
	for _, p := range w.procs {
		p.Machine().Close()
	}
}
