// Gang execution: N same-program jobs sharing one cycle-accurate front end.
//
// A Gang is the cross-job analogue of the broadcast network inside one
// machine: the paper's processor amortizes one decoded instruction over all
// PEs; the gang amortizes one fetch/decode/schedule/issue pass over all jobs
// ("lanes") that run the same program on the same architecture. The gang is
// the solo processor's timing front end (frontEnd in core.go, with the block
// plane of block.go) run over a lane set: every cycle the front end
// classifies threads against the first live lane, picks one, and the chosen
// micro-op executes on every live lane's machine.NewGangLanes state plane.
// This file holds only what is lane-specific: lane allocation, the
// execute-on-every-lane step with its trap finalize and peel, the
// blocked-status peel, and the per-lane results.
//
// Lockstep is sound exactly while the lanes' *control* behavior agrees: the
// front end's decisions depend only on the program (shared), the timing
// parameters (shared), thread PCs and liveness (identical while outcomes
// agree), and interthread-sync blocking (data-dependent). Divergence is
// detected at two points and resolved by peeling the divergent lane out of
// the gang at a quiescent boundary:
//
//   - pre-issue: a blocking micro-op (TSEND/TRECV/TJOIN) whose blocked
//     status differs from the leader lane's — the lane has NOT executed the
//     op and peels with the instruction still pending;
//   - post-execute: a machine.Outcome that differs from the reference
//     lane's (branch direction, halt, exit, spawn) — the lane HAS executed
//     the op and peels with it counted.
//
// A lane that traps finalizes immediately with solo semantics (the trapping
// instruction is never recorded). Peeled lanes carry an architectural
// snapshot; the caller resumes them on an ordinary solo processor via
// Processor.Restore, which yields bit-identical final state for programs
// whose result does not depend on the issue schedule (in particular, all
// single-threaded control divergence).
package core

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"repro/internal/isa"
	"repro/internal/machine"
)

// LaneResult is the terminal state of one gang lane.
type LaneResult struct {
	// Stats is the lane's cycle accounting at the point it left the gang:
	// the full run for lanes that completed in lockstep (identical to a
	// solo run), or the gang-phase prefix for peeled lanes.
	Stats Stats

	// Err is the lane's terminal error: an architectural trap, a wrapped
	// ErrCycleLimit, a context error, or nil for a clean halt. Unset for
	// peeled lanes (they have not finished).
	Err error

	// Peeled marks a lane that diverged from the gang and must be resumed
	// on a solo processor. Snapshot is its architectural state at the peel
	// point (machine.Snapshot format) and PeelCycle the gang cycle it left
	// at, for continuation budgets and merged accounting.
	Peeled    bool
	PeelCycle int64
	Snapshot  []byte
}

// Gang runs n identically configured, same-program processors in lockstep
// behind a single control-unit front end and scoreboard. Its shared
// statistics are per-job, not per-gang: every lane that completes in the
// gang reports a deep copy of them (the front end behaved identically to a
// solo run).
type Gang struct {
	frontEnd

	// live holds the indices of lanes still executing in lockstep (the
	// first one leads); res[i] is filled when lane i leaves (peel, trap, or
	// run end). liveBuf, outBuf, and errBuf are reused each cycle to keep
	// Step allocation-free.
	live    []int
	res     []LaneResult
	liveBuf []int
	outBuf  []machine.Outcome
	errBuf  []error
}

// NewGangDecoded builds a gang of n lanes around a shared decoded program.
// Gangs do not support SMT (the dual-issue second port re-classifies threads
// mid-cycle, which the per-lane divergence checks do not model), structural
// network co-simulation, or tracing; serving callers exclude such jobs from
// ganging instead.
func NewGangDecoded(cfg Config, dp *isa.DecodedProgram, n int) (*Gang, error) {
	if cfg.SMT {
		return nil, fmt.Errorf("core: gang execution does not support SMT")
	}
	if cfg.StructuralNetworks {
		return nil, fmt.Errorf("core: gang execution does not support structural network co-simulation")
	}
	if cfg.TraceDepth != 0 {
		return nil, fmt.Errorf("core: gang execution does not support tracing")
	}
	params, err := cfg.Params()
	if err != nil {
		return nil, err
	}
	lanes, err := machine.NewGangLanes(cfg.Machine, dp, n)
	if err != nil {
		return nil, err
	}
	g := &Gang{
		live:    make([]int, 0, n),
		res:     make([]LaneResult, n),
		liveBuf: make([]int, 0, n),
		outBuf:  make([]machine.Outcome, 0, n),
		errBuf:  make([]error, 0, n),
	}
	if err := g.init(cfg, params, dp, lanes); err != nil {
		return nil, err
	}
	g.gang = g
	g.resetLanes()
	return g, nil
}

// Lanes returns the number of lanes the gang was built with.
func (g *Gang) Lanes() int { return len(g.lanes) }

// Lane exposes lane i's architectural state (for loading data and reading
// results).
func (g *Gang) Lane(i int) *machine.Machine { return g.lanes[i] }

// LiveLanes returns how many lanes are still executing in lockstep.
func (g *Gang) LiveLanes() int { return len(g.live) }

// resetLanes makes every lane live again with no result; the front end's
// Reset calls it after resetting the lane machines.
func (g *Gang) resetLanes() {
	g.live = g.live[:0]
	for i := range g.lanes {
		g.live = append(g.live, i)
	}
	clear(g.res)
}

// setLive installs keep as the live set (recycling the old one as the next
// scratch buffer) and re-points the front end's lead at its first lane, or
// at nil once no lane is left.
func (g *Gang) setLive(keep []int) {
	g.live, g.liveBuf = keep, g.live
	g.lead = nil
	if len(keep) > 0 {
		g.lead = g.lanes[keep[0]]
	}
}

// peelBlocked settles a blocking micro-op (TSEND/TRECV/TJOIN) across the
// gang. Mailbox state is data-dependent (a TSEND target register can differ
// between lanes without any prior Outcome divergence), so a follower whose
// blocked status disagrees with the leader's would break lockstep on the
// very next issue decision. Such followers peel here — before the op
// executes, a quiescent point; the leader stays, so lead is unchanged.
func (g *Gang) peelBlocked(tid int, d *isa.Decoded, blocked bool) {
	keep := append(g.liveBuf[:0], g.live[0])
	for _, li := range g.live[1:] {
		if g.lanes[li].BlockedDecoded(tid, d) != blocked {
			g.peel(li)
		} else {
			keep = append(keep, li)
		}
	}
	if len(keep) < len(g.live) {
		g.setLive(keep)
	}
}

// execLanes executes an issued micro-op of thread tid on every live lane at
// cycle c and returns the surviving lanes' common outcome. A lane that traps
// finalizes before the shared accounting (solo semantics — the trapping
// instruction is not recorded or counted) and the rest of the gang
// continues; when every lane traps the live set empties, lead becomes nil,
// and nothing is recorded. A lane whose control outcome (branch direction,
// halt, exit, spawn) differs from the first surviving lane's peels after
// the accounting, with the instruction counted — it did execute it.
func (g *Gang) execLanes(tid int, d *isa.Decoded, c int64) machine.Outcome {
	out, errs := g.outBuf[:0], g.errBuf[:0]
	for _, li := range g.live {
		o, err := g.lanes[li].ExecDecoded(tid, d)
		out = append(out, o)
		errs = append(errs, err)
	}
	g.outBuf, g.errBuf = out, errs

	ref := -1
	for k, e := range errs {
		if e != nil {
			g.finalize(g.live[k], e)
		} else if ref < 0 {
			ref = k
		}
	}
	if ref < 0 {
		g.setLive(g.liveBuf[:0])
		return machine.Outcome{}
	}
	g.record(tid, d, c)

	keep := g.liveBuf[:0]
	for k, li := range g.live {
		switch {
		case errs[k] != nil:
			// Already finalized above.
		case out[k] != out[ref]:
			g.peel(li)
		default:
			keep = append(keep, li)
		}
	}
	g.setLive(keep)
	return out[ref]
}

// snapStats deep-copies the shared lockstep statistics for one departing
// lane, with the same drain rule as a solo run's.
func (g *Gang) snapStats() Stats {
	s := g.finish()
	s.PerThread = slices.Clone(s.PerThread)
	s.IdleByKind = maps.Clone(s.IdleByKind)
	s.StallByKind = maps.Clone(s.StallByKind)
	return s
}

// peel records lane li as diverged: snapshot its architectural state and the
// gang-phase statistics so the caller can resume it solo.
func (g *Gang) peel(li int) {
	g.res[li] = LaneResult{
		Peeled:    true,
		PeelCycle: g.cycle,
		Snapshot:  g.lanes[li].Snapshot(),
		Stats:     g.snapStats(),
	}
}

// finalize records lane li's terminal result (err nil for a clean halt).
func (g *Gang) finalize(li int, err error) {
	g.res[li] = LaneResult{Err: err, Stats: g.snapStats()}
}

// Run simulates until every lane has finished, peeled, or trapped, or until
// maxCycles elapse (0 = no limit).
func (g *Gang) Run(maxCycles int64) []LaneResult {
	return g.RunContext(context.Background(), maxCycles)
}

// RunContext is Run with cooperative cancellation, on the same cycle loop as
// Processor.RunContext. It always returns one LaneResult per lane; lanes
// still live when the budget, context, or a deadlock ends the run finalize
// with the corresponding error. The returned slice is owned by the gang and
// is invalidated by Reset.
func (g *Gang) RunContext(ctx context.Context, maxCycles int64) []LaneResult {
	err := g.run(ctx, maxCycles)
	for _, li := range g.live {
		g.finalize(li, err)
	}
	g.setLive(g.liveBuf[:0])
	return g.res
}
