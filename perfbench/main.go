// Command perfbench is the repository benchmark. It runs one of four
// fixed-work workloads against the simulator and its serving stack, checks
// every output, and prints its metrics as one JSON object on the last line
// of standard output:
//
//	go build -o perfbench . && ./perfbench --workload sim-mt --seed 1 --seconds 20 --trace 0
//
// --seconds sets the amount of work, not a time box: a workload runs
// seconds fixed repetitions of its job list, each sized to take about a
// second on a 2-vCPU host, so two runs with the same arguments simulate
// identical cycles. --trace 0 prints the end-to-end metrics; --trace 1 runs
// the workload with spans around every call the benchmark makes into a
// layer, replays the workload's jobs through every layer below, and prints
// the per-layer metrics. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// setups is how many times a run builds its workload; setup_s is the median.
const setups = 5

// latencyBlock is the fewest latency samples a block of repetitions holds
// (see pass.latency): enough for a p99 with ten samples beyond it.
const latencyBlock = 1000

// sizes is the work in one repetition of each workload.
type sizes struct {
	mtIters, mtPasses   int // sim-mt: reduction-chain length per job, passes over the thread counts
	widePEs, widePasses int // sim-wide: array width, passes over the kernel suite
	serveRounds         int // serve-run: rounds of 16 requests
	batchesPerClient    int // serve-batch: batches each client sends
}

// fullSizes makes one repetition of each workload take about a second on a
// 2-vCPU host. A sim-mt job simulates about 1.3e5 cycles at 16 threads and
// 4.3e5 at one thread.
var fullSizes = sizes{
	mtIters: 32768, mtPasses: 4,
	widePEs: 1024, widePasses: 7,
	serveRounds:      200,
	batchesPerClient: 48,
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// repOut is what one repetition of a workload did.
type repOut struct {
	attempted, failed, wrong int64
	lat                      []time.Duration // one per correct request (sim: per job)
	model                    model
	errs                     []string // first failure messages, for the log

	// served counts jobs answered by ascd; cacheHits and poolHits count
	// the results that report programCacheHit and poolHit.
	served, cacheHits, poolHits int64
}

func (o *repOut) merge(x repOut) {
	o.attempted += x.attempted
	o.failed += x.failed
	o.wrong += x.wrong
	o.lat = append(o.lat, x.lat...)
	o.model.add(x.model)
	o.errs = append(o.errs, x.errs...)
	o.served += x.served
	o.cacheHits += x.cacheHits
	o.poolHits += x.poolHits
}

func (o *repOut) fail(wrong bool, format string, args ...any) {
	if wrong {
		o.wrong++
	} else {
		o.failed++
	}
	if len(o.errs) < 4 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// workload is one built workload, ready to run repetitions of its fixed
// job list.
type workload interface {
	// rep runs one repetition; rec is nil when untraced.
	rep(rec *recorder) repOut
	// warm runs every distinct job once, untimed, so caches and lazy state
	// are built before measuring.
	warm() repOut
	// ladder returns the jobs the traced run replays through every layer,
	// grouped into same-program gangs.
	ladder() [][]*job
	close()
}

type spec struct {
	name string
	// build makes the workload's inputs from seed; reps is the number of
	// repetitions the run will ask for.
	build func(seed int64, reps int, sz sizes) (workload, error)
}

var specs = []spec{
	{"sim-mt", buildSimMT},
	{"sim-wide", buildSimWide},
	{"serve-run", buildServeRun},
	{"serve-batch", buildServeBatch},
}

func main() {
	name := flag.String("workload", "sim-mt", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "work size: the number of about-one-second repetitions")
	traced := flag.Int("trace", 0, "1 for the traced run that prints per-layer metrics")
	flag.Parse()
	i := slices.IndexFunc(specs, func(s spec) bool { return s.name == *name })
	if i < 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: sim-mt, sim-wide, serve-run, serve-batch; --seconds >= 1; --trace 0|1)\n")
		os.Exit(2)
	}
	res, err := run(specs[i], *seed, *seconds, *traced == 1, fullSizes, filepath.Join(".bench_build", "perfbench-spans"), os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", k)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// pass is the measurement of consecutive repetitions.
type pass struct {
	reps           []repOut
	wall, cpu      []time.Duration // per repetition
	allocBytes     uint64
	attempted, bad int64 // bad: failed or wrong
	wrong          int64
	lat            [][]float64 // ms, per repetition
	model          model
	identical      bool // every repetition produced the same model
	errs           []string

	served, cacheHits, poolHits int64
}

func measure(w workload, reps int, rec *recorder) *pass {
	p := &pass{identical: true}
	runtime.GC()
	a0 := totalAlloc()
	for r := 0; r < reps; r++ {
		t0, c0 := time.Now(), cpuTime()
		o := w.rep(rec)
		p.wall = append(p.wall, time.Since(t0))
		p.cpu = append(p.cpu, cpuTime()-c0)
		p.reps = append(p.reps, o)
		if r > 0 && o.model != p.reps[0].model {
			p.identical = false
		}
		p.attempted += o.attempted
		p.bad += o.failed + o.wrong
		p.wrong += o.wrong
		p.model.add(o.model)
		p.served += o.served
		p.cacheHits += o.cacheHits
		p.poolHits += o.poolHits
		lat := make([]float64, len(o.lat))
		for i, d := range o.lat {
			lat[i] = millis(d)
		}
		p.lat = append(p.lat, lat)
		for _, e := range o.errs {
			if len(p.errs) < 8 && !slices.Contains(p.errs, e) {
				p.errs = append(p.errs, e)
			}
		}
	}
	p.allocBytes = totalAlloc() - a0
	return p
}

// jobsPerSecond is correct jobs per wall second: the median over
// repetitions.
func (p *pass) jobsPerSecond() float64 {
	xs := make([]float64, len(p.reps))
	for i, o := range p.reps {
		xs[i] = float64(o.attempted-o.failed-o.wrong) / p.wall[i].Seconds()
	}
	return median(xs)
}

// latency returns the median and tail latency in ms and the tail quantile
// used. Repetitions are grouped into consecutive blocks of at least
// latencyBlock samples (the last short block joins the one before it); each
// block yields its median and its highest quantile, at most 0.99, with ten
// samples beyond it, and the result is the lowest over blocks: a stretch of
// host stalls inflates the tails of the blocks it covers, and a run keeps
// the block the host disturbed least.
func (p *pass) latency() (p50, tail, q float64, samples int, blockTails []float64) {
	var blocks [][]float64
	var cur []float64
	for _, l := range p.lat {
		cur = append(cur, l...)
		samples += len(l)
		if len(cur) >= latencyBlock {
			blocks, cur = append(blocks, cur), nil
		}
	}
	switch {
	case len(blocks) == 0:
		blocks = [][]float64{cur}
	case len(cur) > 0:
		blocks[len(blocks)-1] = append(blocks[len(blocks)-1], cur...)
	}
	var p50s, tails []float64
	for _, b := range blocks {
		bq := tailQuantile(len(b))
		p50s = append(p50s, quantile(b, 0.5))
		tails = append(tails, quantile(b, bq))
		q = max(q, bq)
	}
	blockTails = slices.Clone(tails)
	return slices.Min(p50s), slices.Min(tails), q, samples, blockTails
}

// cyclesPerCPUSecond is simulated cycles per host CPU-second of the
// process: the median over repetitions.
func (p *pass) cyclesPerCPUSecond() float64 {
	xs := make([]float64, len(p.reps))
	for i, o := range p.reps {
		xs[i] = float64(o.model.Cycles) / max(p.cpu[i].Seconds(), 1e-9)
	}
	return median(xs)
}

func modelDigest(m model) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", m))))[:16]
}

// run builds the workload setups times, then measures it. A traced run
// writes its spans under spanDir; log receives a detail line.
func run(s spec, seed int64, seconds int, traced bool, sz sizes, spanDir string, log io.Writer) (*result, error) {
	reps := seconds
	if traced {
		reps = 2 * max(1, seconds/2)
	}
	var setupTimes []float64
	var w workload
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
			w = nil
		}
		runtime.GC()
		t0 := time.Now()
		nw, err := s.build(seed, reps, sz)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", s.name, err)
		}
		// The warm-up pass is part of set-up: caches fill and lazy state
		// (block programs, warm pools, connections) is built before timing.
		warm := nw.warm()
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		w = nw
		if warm.attempted == 0 {
			w.close()
			return nil, fmt.Errorf("%s warm-up ran no jobs", s.name)
		}
	}
	defer w.close()

	detail := map[string]any{
		"workload": s.name, "seed": seed, "seconds": seconds, "host": fingerprint(),
	}
	res := &result{Metrics: map[string]metric{}}
	if !traced {
		p := measure(w, reps, nil)
		p50, tail, q, n, tails := p.latency()
		res.Correct = p.wrong == 0 && p.identical
		res.Attempted, res.Failed = p.attempted, p.bad
		m := res.Metrics
		m["setup_s"] = metric{median(setupTimes), "s"}
		m["jobs_per_s"] = metric{p.jobsPerSecond(), "1/s"}
		m["sim_cycles_per_cpu_s"] = metric{p.cyclesPerCPUSecond(), "cycles/s"}
		m["latency_p50_ms"] = metric{p50, "ms"}
		m["latency_p99_ms"] = metric{tail, "ms"}
		m["alloc_bytes_per_job"] = metric{float64(p.allocBytes) / float64(p.attempted), "B"}
		m["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
		m["model_ipc"] = metric{float64(p.model.Instructions) / float64(p.model.Cycles), "instr/cycle"}
		detail["reps"] = reps
		detail["latencyTail"] = map[string]any{"quantile": q, "samples": n, "blockTailsMs": tails}
		detail["modelDigest"] = modelDigest(p.reps[0].model)
		detail["modelIdenticalAcrossReps"] = p.identical
		detail["failures"] = p.errs
		detail["repWallS"], detail["repCPUS"] = inSeconds(p.wall), inSeconds(p.cpu)
	} else {
		plain := measure(w, reps/2, nil)
		rec := newRecorder()
		setTracing(w, rec)
		tp := measure(w, reps/2, rec)
		setTracing(w, nil)
		lr, err := runLadder(w, rec)
		if err != nil {
			return nil, err
		}
		spans := rec.snapshot()
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", s.name, seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		same := plain.identical && tp.identical && plain.reps[0].model == tp.reps[0].model
		res.Correct = plain.wrong == 0 && tp.wrong == 0 && same && len(lr.mismatch) == 0
		res.Attempted = plain.attempted + tp.attempted + lr.attempted
		res.Failed = plain.bad + tp.bad + lr.failed
		res.Metrics = layerMetrics(spans, lr, tp)
		res.Metrics["trace.overhead"] = metric{1 - tp.jobsPerSecond()/plain.jobsPerSecond(), "ratio"}
		detail["reps"] = reps / 2
		detail["spans"] = map[string]any{"file": path, "count": len(spans)}
		detail["modelDigest"] = modelDigest(tp.reps[0].model)
		detail["modelIdenticalTracedVsUntraced"] = same
		detail["failures"] = append(append(plain.errs, tp.errs...), lr.errs...)
		detail["mismatches"] = lr.mismatch
	}
	if line, err := json.Marshal(detail); err == nil {
		fmt.Fprintf(log, "detail %s\n", line)
	}
	return res, nil
}

func inSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// setTracing points a workload's HTTP wrappers at rec (nil: untraced).
func setTracing(w workload, rec *recorder) {
	if t, ok := w.(interface{ tracing() *tracing }); ok {
		t.tracing().rec.Store(rec)
	}
}
