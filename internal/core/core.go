// Package core is the cycle-accurate simulator of the Multithreaded
// Associative SIMD (MTASC) processor — the paper's primary contribution.
// It combines the functional machine (internal/machine), the control-unit
// front end (internal/cu), the split-pipeline timing model and scoreboard
// (internal/pipeline), and the pipelined broadcast/reduction network
// latencies (internal/network).
//
// Each simulated cycle: the scheduler picks one ready hardware thread by
// rotating priority and issues its next instruction into the split pipeline;
// the fetch unit fetches one instruction into a thread's buffer. A thread is
// ready when its next instruction is fetched and decoded, all register
// dependences are satisfiable by forwarding (scoreboard), any sequential
// functional unit it needs is free, and it is not blocked on interthread
// synchronization. Stall and idle cycles are attributed to the paper's
// hazard classes (broadcast, reduction, broadcast-reduction) plus data,
// structural, control, sync, and fetch causes.
//
// The timing model is implemented once, in frontEnd: the scheduler, the
// issue stage, and the block-dispatch tier (block.go). Processor runs it over
// one machine; Gang (gang.go) runs it over a lane set of same-program
// machines in lockstep. Only two steps depend on the lane count — executing
// an issued micro-op and the blocked check of a blocking one — and each
// branches once on the nil lane set of a solo processor.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/cu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/network"
	"repro/internal/pipeline"
)

// SchedulerPolicy selects the issue-arbitration policy.
type SchedulerPolicy uint8

const (
	// SchedRotating is the paper's rotating-priority policy (fair).
	SchedRotating SchedulerPolicy = iota
	// SchedFixed always prefers the lowest-numbered ready thread
	// (ablation baseline; starves high-numbered threads).
	SchedFixed
)

// Config configures a simulated processor.
type Config struct {
	Machine machine.Config

	// Arity is the broadcast tree arity k (default 4).
	Arity int

	// Front end.
	BufferDepth int
	FetchWidth  int

	// Functional units.
	SeqMul     bool // sequential multiplier instead of pipelined hard blocks
	MulLatency int  // 0 = default (2 pipelined; data width if sequential)

	Scheduler SchedulerPolicy

	// SMT enables dual issue: one scalar-path instruction and one
	// parallel/reduction-path instruction may issue in the same cycle,
	// from two different hardware threads. The paper (section 5) discusses
	// SMT as the costlier alternative to fine-grain multithreading; the
	// split pipeline of Figure 1 has exactly two independent issue ports
	// (the scalar datapath and the broadcast network), which is what this
	// models. Thread-management instructions only use the primary port.
	SMT bool

	// StructuralNetworks runs every reduction through the structural
	// pipelined network models (internal/network.Bank) in lockstep with
	// the instruction-level simulation, verifying value and latency of
	// each result. Slower; intended for validation runs and tests.
	StructuralNetworks bool

	// TraceDepth keeps the most recent N issued-instruction records for
	// pipeline diagrams; 0 disables tracing, -1 keeps everything.
	TraceDepth int

	// Blocks selects the block-dispatch tier (see block.go): BlocksAuto
	// engages it whenever the configuration allows (no SMT, no structural
	// co-simulation, no tracing) and exactly one thread is active;
	// BlocksOff forces the per-cycle path. Architecturally invisible
	// either way — cycle accounting is bit-identical.
	Blocks BlocksMode

	// DeadlockWindow aborts the run if no instruction issues for this many
	// consecutive cycles while threads remain (0 = default 100000).
	DeadlockWindow int64
}

// Params validates the configuration, filling defaults in place, and
// returns the derived pipeline timing parameters.
func (c *Config) Params() (pipeline.Params, error) {
	if err := c.Machine.Validate(); err != nil {
		return pipeline.Params{}, err
	}
	mc := c.Machine
	if c.Arity == 0 {
		c.Arity = 4
	}
	if c.Arity < 2 || c.Arity > 64 {
		return pipeline.Params{}, fmt.Errorf("core: Arity must be in [2, 64], got %d", c.Arity)
	}
	p := pipeline.DefaultParams(mc.PEs, c.Arity, mc.Width)
	if c.SeqMul {
		p.SeqMul = true
		p.MulLatency = int(mc.Width)
	}
	if c.MulLatency > 0 {
		p.MulLatency = c.MulLatency
	}
	return p, p.Validate()
}

// InstRecord is one issued instruction, for tracing and pipeline diagrams.
type InstRecord struct {
	Issue      int64
	FetchCycle int64
	Thread     int
	PC         int
	Inst       isa.Inst
	Stall      int64 // cycles waited beyond the front-end minimum
	StallKind  pipeline.HazardKind
}

// Stats aggregates a simulation run.
type Stats struct {
	// Cycles is the total run length including pipeline drain: the cycle
	// after the last in-flight instruction completed write-back.
	Cycles int64
	// Instructions issued, total and by pipeline class.
	Instructions int64
	Scalar       int64
	Parallel     int64
	Reduction    int64
	// PerThread[t] is the number of instructions issued by thread t.
	PerThread []int64
	// IdleCycles is the number of issue slots in which no thread was ready
	// (the broadcast/reduction bottleneck made visible); IdleByKind
	// attributes each idle cycle to the cause of the thread that was
	// closest to becoming ready.
	IdleCycles int64
	IdleByKind map[pipeline.HazardKind]int64
	// StallByKind sums, over issued instructions, the cycles each waited
	// beyond its front-end minimum, attributed to the binding hazard.
	StallByKind map[pipeline.HazardKind]int64
	// Contention counts ready-but-not-selected thread-cycles (more than
	// one thread ready for the single issue slot).
	Contention int64
	// Front-end counters.
	Fetches int64
	Flushes int64
	// BlockDispatches counts block-plane entries (each covering one or
	// more issued micro-ops); BlockFallbacks counts per-reason declines
	// back to the per-cycle path (nil when none occurred or the block
	// plane is off). See block.go.
	BlockDispatches int64
	BlockFallbacks  map[string]int64
}

// IPC is issued instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Utilization is the fraction of cycles that issued an instruction.
func (s Stats) Utilization() float64 { return s.IPC() }

// newStats returns zeroed statistics for a processor of n threads.
func newStats(n int) Stats {
	return Stats{
		PerThread:   make([]int64, n),
		IdleByKind:  make(map[pipeline.HazardKind]int64),
		StallByKind: make(map[pipeline.HazardKind]int64),
	}
}

// frontEnd is the one timing front end: the control unit, the scoreboard,
// the sequential-unit reservations, the statistics, and the block plane,
// driven by one scheduler/issue/block-dispatch loop. Every scheduling
// decision reads lead — the solo machine, or the gang's first live lane
// (lanes agree on everything the front end reads while they run in
// lockstep).
type frontEnd struct {
	cfg    Config
	params pipeline.Params
	lanes  []*machine.Machine // the solo machine, or every gang lane
	lead   *machine.Machine   // nil once every gang lane has left
	front  *cu.CU
	sb     *pipeline.Scoreboard

	// gang is the lane set's owner, nil on a solo processor.
	gang *Gang

	cycle         int64
	lastIssue     int64
	maxCompletion int64
	halted        bool

	// Sequential functional units become free at these cycles. The control
	// unit and the PE array have separate multiplier/divider resources.
	cuMulFree, cuDivFree int64
	peMulFree, peDivFree int64

	stats Stats
	trace []InstRecord

	// Block-dispatch tier (block.go). blocks is nil when the tier is off
	// or the configuration excludes it; blockFuse additionally allows
	// fused superinstruction kernels (serial engine only — the sharded
	// engine executes constituents individually, which the fallback
	// single-step path already covers; gang lanes are always serial).
	blocks          *isa.BlockProgram
	blockFuse       bool
	blockDispatches int64
	blockFallbacks  [numFallbacks]int64

	// checkpointReq is set by RequestCheckpoint (any goroutine) and
	// consumed by RunContext at the next cancel-check window boundary,
	// stopping the run at a quiescent point with ErrCheckpoint.
	checkpointReq atomic.Bool

	// statusBuf is reused each cycle by Step to avoid per-cycle allocation.
	statusBuf []threadState

	// structural is non-nil when Config.StructuralNetworks is set.
	structural *structState
}

// threadState is the per-cycle readiness classification of one thread.
type threadState struct {
	ready bool
	why   blocker
}

// init wires the front end for program dp over lanes (lanes[0] leads).
// cfg has been validated by Config.Params, which returned params.
func (f *frontEnd) init(cfg Config, params pipeline.Params, dp *isa.DecodedProgram, lanes []*machine.Machine) error {
	if cfg.SMT && cfg.FetchWidth == 0 {
		// Dual issue consumes up to two instructions per cycle; a
		// single-ported instruction fetch would starve the second port.
		cfg.FetchWidth = 2
	}
	front, err := cu.New(cu.Config{
		Threads:     cfg.Machine.Threads,
		BufferDepth: cfg.BufferDepth,
		FetchWidth:  cfg.FetchWidth,
	}, dp)
	if err != nil {
		return err
	}
	if cfg.DeadlockWindow == 0 {
		cfg.DeadlockWindow = 100000
	}
	f.cfg, f.params, f.lanes, f.lead, f.front = cfg, params, lanes, lanes[0], front
	f.sb = pipeline.NewScoreboard(params, cfg.Machine.Threads)
	f.stats = newStats(cfg.Machine.Threads)
	f.statusBuf = make([]threadState, cfg.Machine.Threads)
	if cfg.StructuralNetworks {
		f.structural = newStructState(cfg.Machine.PEs, cfg.Arity, cfg.Machine.Width)
	}
	if cfg.Blocks != BlocksOff && !cfg.SMT && !cfg.StructuralNetworks && cfg.TraceDepth == 0 {
		f.blocks = dp.Blocks()
		f.blockFuse = !lanes[0].EngineParallelActive()
	}
	return nil
}

// Params returns the derived timing parameters (b, r, unit latencies).
func (f *frontEnd) Params() pipeline.Params { return f.params }

// Cycle returns the current simulation cycle.
func (f *frontEnd) Cycle() int64 { return f.cycle }

// blocker describes why a thread cannot issue at the current cycle.
type blocker struct {
	kind    pipeline.HazardKind
	readyAt int64 // estimated cycle the thread becomes ready; -1 = unknown
}

// threadStatus classifies thread tid at the current cycle. ready=true means
// it can issue now; otherwise why describes the binding obstacle.
func (f *frontEnd) threadStatus(tid int) (ready bool, why blocker) {
	if !f.lead.ThreadActive(tid) || !f.front.Active(tid) {
		return false, blocker{kind: pipeline.HazardNone, readyAt: -1}
	}
	head, ok := f.front.Head(tid)
	if !ok {
		// Buffer empty: either a redirect is resolving or fetch bandwidth
		// has not reached this thread yet.
		return false, blocker{kind: pipeline.HazardFetch, readyAt: -1}
	}
	if head.PC != f.lead.PC(tid) {
		panic(fmt.Sprintf("core: thread %d buffer head pc %d != architectural pc %d", tid, head.PC, f.lead.PC(tid)))
	}
	if e := head.EligibleAt(); e > f.cycle {
		return false, blocker{kind: pipeline.HazardFetch, readyAt: e}
	}
	if min, kind := f.sb.MinIssue(tid, head.D); min > f.cycle {
		return false, blocker{kind: kind, readyAt: min}
	}
	if free := f.unitFreeAt(head.D); free > f.cycle {
		return false, blocker{kind: pipeline.HazardStructural, readyAt: free}
	}
	if head.D.Info.Blocking {
		blocked := f.lead.BlockedDecoded(tid, head.D)
		if f.gang != nil {
			f.gang.peelBlocked(tid, head.D, blocked)
		}
		if blocked {
			return false, blocker{kind: pipeline.HazardSync, readyAt: -1}
		}
	}
	return true, blocker{}
}

// unitFreeAt returns the cycle at which any sequential unit the micro-op
// needs becomes free (or 0 if it needs none / the unit is pipelined).
func (f *frontEnd) unitFreeAt(d *isa.Decoded) int64 {
	info := d.Info
	switch {
	case info.IsDiv && d.Class == isa.ClassScalar:
		return f.cuDivFree
	case info.IsDiv:
		return f.peDivFree
	case info.IsMul && f.params.SeqMul && d.Class == isa.ClassScalar:
		return f.cuMulFree
	case info.IsMul && f.params.SeqMul:
		return f.peMulFree
	}
	return 0
}

// reserveUnit marks a sequential unit busy after an issue at cycle t.
func (f *frontEnd) reserveUnit(d *isa.Decoded, t int64) {
	info := d.Info
	switch {
	case info.IsDiv && d.Class == isa.ClassScalar:
		f.cuDivFree = t + int64(f.params.DivLatency)
	case info.IsDiv:
		f.peDivFree = t + int64(f.params.DivLatency)
	case info.IsMul && f.params.SeqMul && d.Class == isa.ClassScalar:
		f.cuMulFree = t + int64(f.params.MulLatency)
	case info.IsMul && f.params.SeqMul:
		f.peMulFree = t + int64(f.params.MulLatency)
	}
}

// Step simulates one clock cycle. It returns false once the machine has
// halted and the pipeline has drained (for a gang: once every lane has
// left, or the survivors have halted and drained).
func (f *frontEnd) Step() (bool, error) {
	if f.done() {
		return false, nil
	}

	// Structural co-simulation: advance the network bank first, so an
	// operation pushed at issue cycle t takes its first pipeline step at
	// t+1 (entering B1) and emerges at t+b+r+1, the end of its last
	// reduction stage.
	if f.structural != nil {
		if err := f.stepStructural(); err != nil {
			return false, err
		}
	}

	// Issue phase: classify every thread, pick one ready thread.
	n := f.cfg.Machine.Threads
	sts := f.statusBuf
	readyCount := 0
	for tid := 0; tid < n; tid++ {
		r, why := f.threadStatus(tid)
		sts[tid] = threadState{ready: r, why: why}
		if r {
			readyCount++
		}
	}
	// A local closure, so the inlined pickers call it directly.
	isReady := func(tid int) bool { return sts[tid].ready }

	var picked int
	switch f.cfg.Scheduler {
	case SchedFixed:
		picked = f.front.PickFixed(isReady)
	default:
		picked = f.front.PickRotating(isReady)
	}

	if picked >= 0 {
		firstClass := f.headClass(picked)
		if err := f.issue(picked); err != nil {
			return false, err
		}
		issued := 1
		if f.cfg.SMT {
			// Second issue slot: a thread whose next instruction uses the
			// other datapath. Statuses are re-evaluated because the first
			// issue changed machine and scoreboard state.
			second := f.pickSecond(picked, firstClass)
			if second >= 0 {
				if err := f.issue(second); err != nil {
					return false, err
				}
				issued++
			}
		}
		if extra := readyCount - issued; extra > 0 {
			f.stats.Contention += int64(extra)
		}
		f.lastIssue = f.cycle
	} else if f.anyActive() {
		f.stats.IdleCycles++
		// Attribute the lost issue slot to the thread closest to ready.
		best := blocker{kind: pipeline.HazardNone, readyAt: -1}
		for tid := 0; tid < n; tid++ {
			w := sts[tid].why
			if w.kind == pipeline.HazardNone {
				continue
			}
			if best.kind == pipeline.HazardNone ||
				(w.readyAt >= 0 && (best.readyAt < 0 || w.readyAt < best.readyAt)) {
				best = w
			}
		}
		if best.kind != pipeline.HazardNone {
			f.stats.IdleByKind[best.kind]++
		}
		if f.cycle-f.lastIssue > f.cfg.DeadlockWindow {
			return false, fmt.Errorf("core: no instruction issued for %d cycles (deadlock at cycle %d)", f.cfg.DeadlockWindow, f.cycle)
		}
	}

	// Fetch phase (same cycle, after issue, so a decode-stage redirect can
	// refetch immediately).
	f.front.Fetch(f.cycle)

	f.cycle++
	return !f.done(), nil
}

// headClass returns the pipeline class of tid's next instruction (only
// valid when the thread was just found ready).
func (f *frontEnd) headClass(tid int) isa.Class {
	head, ok := f.front.Head(tid)
	if !ok {
		return isa.ClassScalar
	}
	return head.D.Class
}

// scalarPath reports whether a class uses the scalar datapath issue port.
func scalarPath(c isa.Class) bool { return c == isa.ClassScalar }

// pickSecond selects a thread for the SMT second issue slot: ready right
// now (re-evaluated after the first issue), different thread, opposite
// datapath, and not a thread-management or halt instruction (the thread
// status table is single-ported).
func (f *frontEnd) pickSecond(first int, firstClass isa.Class) int {
	if f.halted {
		return -1
	}
	ok := func(tid int) bool {
		if tid == first {
			return false
		}
		ready, _ := f.threadStatus(tid)
		if !ready {
			return false
		}
		head, have := f.front.Head(tid)
		if !have {
			return false
		}
		info := head.D.Info
		if info.IsThread || info.IsHalt {
			return false
		}
		return scalarPath(head.D.Class) != scalarPath(firstClass)
	}
	switch f.cfg.Scheduler {
	case SchedFixed:
		return f.front.PickFixed(ok)
	default:
		return f.front.PickRotating(ok)
	}
}

func (f *frontEnd) anyActive() bool {
	for tid := 0; tid < f.cfg.Machine.Threads; tid++ {
		if f.lead.ThreadActive(tid) {
			return true
		}
	}
	return false
}

func (f *frontEnd) done() bool {
	if f.lead == nil {
		return true // every gang lane has left
	}
	if !f.halted && !f.lead.Halted() {
		return false
	}
	// Drain: run the clock to the last write-back.
	return f.cycle >= f.maxCompletion
}

// accountStall records the cycles a micro-op issuing at cycle c waited
// beyond its front-end minimum (eligible), attributed to the binding
// hazard at decode time, and returns the stall.
func (f *frontEnd) accountStall(d *isa.Decoded, eligible, minIssue int64, kind pipeline.HazardKind, c int64) int64 {
	stall := c - eligible
	if stall > 0 {
		if minIssue <= eligible {
			// Not a register hazard: structural, sync, or contention.
			kind = pipeline.HazardNone
			if f.unitFreeAt(d) > eligible {
				kind = pipeline.HazardStructural
			}
		}
		if kind != pipeline.HazardNone {
			f.stats.StallByKind[kind] += stall
		}
	}
	return stall
}

// issue pops the head micro-op of thread tid and executes it at the
// current cycle: on the solo machine, where a trap returns with nothing
// recorded, or on every live gang lane (Gang.execLanes).
func (f *frontEnd) issue(tid int) error {
	head := f.front.PopHead(tid)
	d := head.D
	minIssue, kind := f.sb.MinIssue(tid, d)
	stall := f.accountStall(d, head.EligibleAt(), minIssue, kind, f.cycle)

	if f.structural != nil && d.Class == isa.ClassReduction {
		f.pushReduction(tid, d.Inst)
	}

	var out machine.Outcome
	if f.gang == nil {
		var err error
		if out, err = f.lead.ExecDecoded(tid, d); err != nil {
			return err // trap: nothing recorded
		}
		f.record(tid, d, f.cycle)
	} else {
		out = f.gang.execLanes(tid, d, f.cycle)
		if f.lead == nil {
			return nil // every lane trapped
		}
	}
	if f.cfg.TraceDepth != 0 {
		rec := InstRecord{
			Issue: f.cycle, FetchCycle: head.FetchCycle, Thread: tid,
			PC: head.PC, Inst: d.Inst, Stall: stall, StallKind: kind,
		}
		if stall <= 0 {
			rec.StallKind = pipeline.HazardNone
		}
		f.trace = append(f.trace, rec)
		if f.cfg.TraceDepth > 0 && len(f.trace) > f.cfg.TraceDepth {
			f.trace = f.trace[1:]
		}
	}

	// Control flow outcomes.
	switch {
	case out.Halt:
		f.halted = true
		for t := 0; t < f.cfg.Machine.Threads; t++ {
			f.front.StopThread(t)
		}
	case out.Exited:
		f.front.StopThread(tid)
	case out.Redirect:
		resume := f.cycle + int64(f.params.ExecRedirect) - 1
		if d.Kind == isa.ExecJump && d.Jump != isa.JumpReg {
			// J/JAL: target known at decode, cheap redirect.
			resume = f.cycle + int64(f.params.DecodeRedirect) - 1
		}
		f.front.Redirect(tid, out.NextPC, resume)
	}
	if out.Spawned >= 0 {
		f.sb.ClearThread(out.Spawned)
		f.front.StartThread(out.Spawned, f.lead.PC(out.Spawned), f.cycle+int64(f.params.SpawnStart)-1)
	}
	return nil
}

// record applies the shared accounting of a micro-op of thread tid issued
// at cycle c: scoreboard, unit reservation, drain horizon, and statistics.
func (f *frontEnd) record(tid int, d *isa.Decoded, c int64) {
	f.sb.Record(tid, d, c)
	f.reserveUnit(d, c)
	if ct := f.params.CompletionTime(d, c); ct > f.maxCompletion {
		f.maxCompletion = ct
	}
	f.stats.Instructions++
	f.stats.PerThread[tid]++
	switch d.Class {
	case isa.ClassScalar:
		f.stats.Scalar++
	case isa.ClassParallel:
		f.stats.Parallel++
	case isa.ClassReduction:
		f.stats.Reduction++
	}
}

// ErrCycleLimit reports that a run stopped at its cycle budget before the
// machine halted. Callers distinguishing resource exhaustion from
// architectural traps test with errors.Is.
var ErrCycleLimit = errors.New("cycle limit reached before halt")

// ErrCheckpoint reports that a run stopped because RequestCheckpoint was
// called, not because the machine halted or the budget ran out. The
// processor is at a quiescent point: Snapshot() captures a state from which
// an identically configured machine resumes bit-identically. Callers test
// with errors.Is.
var ErrCheckpoint = errors.New("run suspended at checkpoint request")

// cancelCheckWindow is how many cycles RunContext simulates between context
// polls: coarse enough that the poll is invisible in the hot loop, fine
// enough that cancellation lands within microseconds of real time.
const cancelCheckWindow = 4096

// Run simulates until the machine halts and the pipeline drains, or until
// maxCycles elapse (0 = no limit). It returns the final statistics.
func (f *frontEnd) Run(maxCycles int64) (Stats, error) {
	return f.RunContext(context.Background(), maxCycles)
}

// RunContext is Run with cooperative cancellation: every cancelCheckWindow
// cycles it polls ctx and the checkpoint request flag. When the context is
// done it stops and returns the statistics so far together with the
// context's error; when a checkpoint was requested it stops with
// ErrCheckpoint instead. Either way the processor is left at a quiescent
// point (between Step calls), so it can be Reset, Snapshot, or resumed
// afterwards.
func (f *frontEnd) RunContext(ctx context.Context, maxCycles int64) (Stats, error) {
	err := f.run(ctx, maxCycles)
	return f.finish(), err
}

// run is the shared cycle loop: block dispatch where the closed form
// applies, the per-cycle Step elsewhere, with budget, context, and
// checkpoint polls at window boundaries. Block-plane results do not depend
// on where a window boundary falls, so every caller polls at the same
// window.
func (f *frontEnd) run(ctx context.Context, maxCycles int64) error {
	done := ctx.Done()
	nextCheck := f.cycle + cancelCheckWindow
	for {
		if maxCycles > 0 && f.cycle >= maxCycles {
			return fmt.Errorf("core: %w (limit %d)", ErrCycleLimit, maxCycles)
		}
		if f.cycle >= nextCheck {
			if f.checkpointReq.CompareAndSwap(true, false) {
				return fmt.Errorf("core: %w (cycle %d)", ErrCheckpoint, f.cycle)
			}
			if done != nil {
				select {
				case <-done:
					return fmt.Errorf("core: run stopped at cycle %d: %w", f.cycle, ctx.Err())
				default:
				}
			}
			nextCheck = f.cycle + cancelCheckWindow
		}
		if f.blocks != nil {
			// Block-dispatch tier: cover as much of the window as the
			// closed form allows, then fall back to the per-cycle path.
			stopAt := nextCheck
			if maxCycles > 0 && maxCycles < stopAt {
				stopAt = maxCycles
			}
			ran, err := f.runBlock(stopAt)
			if err != nil {
				return err
			}
			if ran {
				continue
			}
		}
		more, err := f.Step()
		if err != nil {
			return err
		}
		if !more {
			return f.structuralDrained()
		}
	}
}

// finish returns the run's statistics with the drain rule and the
// block-plane counters applied. The maps are shared with the front end.
func (f *frontEnd) finish() Stats {
	s := f.stats
	s.Cycles = f.cycle
	if f.maxCompletion+1 > s.Cycles {
		s.Cycles = f.maxCompletion + 1
	}
	s.Fetches = f.front.Fetches
	s.Flushes = f.front.Flushes
	s.BlockDispatches = f.blockDispatches
	for i, v := range f.blockFallbacks {
		if v == 0 {
			continue
		}
		if s.BlockFallbacks == nil {
			s.BlockFallbacks = make(map[string]int64, numFallbacks)
		}
		s.BlockFallbacks[fallbackReasons[i]] = v
	}
	return s
}

// Reset returns the processor (every gang lane, all live again) to
// power-on state — architectural machine state, front end, scoreboard,
// sequential-unit reservations, statistics, and trace — without
// reallocating the flat register/flag/memory files or restarting the host
// engine's worker pool. A reset processor or gang behaves identically to a
// freshly constructed one; the serving pool relies on this to reuse warm
// machines and gangs across requests.
func (f *frontEnd) Reset() {
	for _, m := range f.lanes {
		m.Reset()
	}
	f.lead = f.lanes[0]
	if f.gang != nil {
		f.gang.resetLanes()
	}
	f.front.Reset(f.lead.Decoded())
	for tid := 0; tid < f.cfg.Machine.Threads; tid++ {
		f.sb.ClearThread(tid)
	}
	f.cycle, f.lastIssue, f.maxCompletion = 0, 0, 0
	f.halted = false
	f.cuMulFree, f.cuDivFree, f.peMulFree, f.peDivFree = 0, 0, 0, 0
	f.stats = newStats(f.cfg.Machine.Threads)
	f.trace = nil
	f.blockDispatches = 0
	f.blockFallbacks = [numFallbacks]int64{}
	f.checkpointReq.Store(false)
	if f.structural != nil {
		f.structural = newStructState(f.cfg.Machine.PEs, f.cfg.Arity, f.cfg.Machine.Width)
	}
}

// SetDecoded retargets the processor (every gang lane) at an
// already-decoded program and Resets it.
func (f *frontEnd) SetDecoded(dp *isa.DecodedProgram) {
	for _, m := range f.lanes {
		m.SetDecoded(dp)
	}
	if f.blocks != nil {
		f.blocks = dp.Blocks()
	}
	f.Reset()
}

// Processor is a configured simulation instance: the timing front end over
// one machine.
type Processor struct {
	frontEnd
}

// New builds a processor for a program, decoding and validating it up
// front (errors wrap isa.ErrInvalidProgram for bad programs).
func New(cfg Config, prog []isa.Inst) (*Processor, error) {
	dp, err := isa.DecodeProgram(prog)
	if err != nil {
		return nil, err
	}
	return NewDecoded(cfg, dp)
}

// NewDecoded builds a processor around an already-decoded program,
// sharing the immutable decoded form with other consumers (the serving
// stack's program cache decodes once per distinct program).
func NewDecoded(cfg Config, dp *isa.DecodedProgram) (*Processor, error) {
	params, err := cfg.Params()
	if err != nil {
		return nil, err
	}
	mach, err := machine.NewDecoded(cfg.Machine, dp)
	if err != nil {
		return nil, err
	}
	p := &Processor{}
	if err := p.init(cfg, params, dp, []*machine.Machine{mach}); err != nil {
		return nil, err
	}
	return p, nil
}

// Machine exposes the architectural state (for loading data and reading
// results).
func (p *Processor) Machine() *machine.Machine { return p.lead }

// Trace returns the recorded instruction trace (nil if TraceDepth is 0).
func (p *Processor) Trace() []InstRecord { return p.trace }

// FrontEnd exposes the control-unit front end (for introspection tools).
func (p *Processor) FrontEnd() *cu.CU { return p.front }

// RequestCheckpoint asks an in-flight RunContext to stop at the next
// cancel-check window boundary with ErrCheckpoint. Safe to call from any
// goroutine; a request with no run in flight applies to the next
// RunContext on this processor (Reset clears it). Runs shorter than the
// poll window simply complete — there is no boundary at which to suspend
// them.
func (p *Processor) RequestCheckpoint() { p.checkpointReq.Store(true) }

// SetProgram retargets the processor at a new program and Resets it. The
// program is decoded and validated like New; on error the processor is
// left unchanged, still running the old program. The configuration (and
// thus all allocated state) is unchanged, which is what lets a pooled
// machine serve a stream of different programs.
func (p *Processor) SetProgram(prog []isa.Inst) error {
	dp, err := isa.DecodeProgram(prog)
	if err != nil {
		return err
	}
	p.SetDecoded(dp)
	return nil
}

// Restore loads an architectural snapshot (machine.Snapshot) taken from an
// identically configured machine at a quiescent point, and resynchronizes
// the microarchitectural state: instruction buffers refetch from the
// restored PCs, the scoreboard empties (no instructions are in flight at a
// quiescent point), and any structural co-simulation state is discarded.
func (p *Processor) Restore(data []byte) error {
	if err := p.lead.Restore(data); err != nil {
		return err
	}
	for tid := 0; tid < p.cfg.Machine.Threads; tid++ {
		p.sb.ClearThread(tid)
		if p.lead.ThreadActive(tid) {
			p.front.StartThread(tid, p.lead.PC(tid), p.cycle)
		} else {
			p.front.StopThread(tid)
		}
	}
	p.cuMulFree, p.cuDivFree, p.peMulFree, p.peDivFree = 0, 0, 0, 0
	p.halted = p.lead.Halted()
	if p.structural != nil {
		p.structural = newStructState(p.cfg.Machine.PEs, p.cfg.Arity, p.cfg.Machine.Width)
	}
	return nil
}

// Snapshot serializes the architectural state (see machine.Snapshot).
func (p *Processor) Snapshot() []byte { return p.lead.Snapshot() }

// NetworkLatencies returns (b, r) for convenience in reports.
func (p *Processor) NetworkLatencies() (b, r int) { return p.params.B, p.params.R }

// Describe summarizes the processor configuration.
func (p *Processor) Describe() string {
	mc := p.cfg.Machine
	return fmt.Sprintf(
		"MTASC processor: %d PEs x %d-bit, %d hardware threads, %d KB local memory/PE\n"+
			"broadcast: %d-ary tree, b=%d stages (%d nodes); reduction: binary trees, r=%d stages (%d nodes/unit)\n",
		mc.PEs, mc.Width, mc.Threads, mc.LocalMemWords*int(mc.Width)/8/1024,
		p.cfg.Arity, p.params.B, network.BroadcastNodes(mc.PEs, p.cfg.Arity),
		p.params.R, network.ReduceNodes(mc.PEs))
}
