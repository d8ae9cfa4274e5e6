// Block-plane dispatch: when exactly one hardware thread is active, the
// per-cycle fetch/classify/pick/issue loop is provably equivalent to a
// closed form — the thread's next issue cycle is max(eligible, scoreboard
// minimum, unit-free), every cycle before it is idle and attributed to the
// first binding threshold, and the fetch unit serves only that thread.
// runBlock exploits this to dispatch a whole basic block (isa.BuildBlocks)
// per entry: singleton micro-ops issue via the closed form, and fused
// superinstructions execute in one machine.ExecFused call (on every live
// lane of a gang) with per-constituent accounting replayed at their
// back-to-back issue cycles. Every counter the generic path maintains
// (cycles, stalls by kind, idle by kind, fetches, contention, completion
// drain) is updated identically, so the golden cycle tests hold with the
// block plane on or off. The tier is part of the shared front end, so the
// solo processor and the gang dispatch through the same code; a gang's
// singleton ops keep its per-lane trap and peel semantics because they
// execute through Gang.execLanes like its per-cycle issues, and fused
// kernels are trap-free and outcome-free by construction.
//
// The dispatcher falls back to the generic Step — counting why — at
// every surface the closed form does not cover: more than one active
// thread, an empty instruction buffer (redirect/refill), a pc outside
// every block (terminators: control flow and thread management), and a
// pending deadlock-window expiry (the per-cycle path owns that error).
// Architectural traps need no fallback: the closed form stops exactly
// where the generic path would, with the trapping op popped but not
// recorded.
//
// This file is in the hot-path lint set: dispatch keys on precomputed
// micro-op selector fields only.
package core

import (
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// BlocksMode selects whether the block-dispatch tier may engage.
type BlocksMode uint8

const (
	// BlocksAuto (default) dispatches block-at-a-time whenever the
	// configuration and the dynamic thread population allow it.
	BlocksAuto BlocksMode = iota
	// BlocksOff forces the per-cycle path everywhere (A/B baseline).
	BlocksOff
)

// String renders the mode for configuration fingerprints.
func (m BlocksMode) String() string {
	if m == BlocksOff {
		return "off"
	}
	return "auto"
}

// Block-dispatch fallback reasons, indexing the fixed counter array so
// the dispatcher itself never touches a map.
const (
	fbMultithread = iota // more than one thread active: lockstep closed form invalid
	fbRefill             // instruction buffer empty: redirect resolving or fetch catching up
	fbBoundary           // pc outside every block: a terminator owns this issue
	fbWindow             // deadlock window would expire inside the span
	numFallbacks
)

// fallbackReasons names the counters for Stats.BlockFallbacks and the
// asc_sim_block_fallbacks_total metric labels.
var fallbackReasons = [numFallbacks]string{"multithread", "refill", "boundary", "window"}

// soleState classifies the thread population for the block gate.
type soleState uint8

const (
	soleNone soleState = iota // no runnable thread (drain): fall back silently
	soleOne                   // exactly one thread active in machine and front end
	soleMany                  // anything else: per-cycle path required
)

// soleActive finds the single active thread, if there is exactly one.
// The closed form needs the machine view (idle attribution, anyActive)
// and the front-end view (fetch arbitration) to agree on one thread.
func (f *frontEnd) soleActive() (int, soleState) {
	tid, nm, nf := -1, 0, 0
	for t := 0; t < f.cfg.Machine.Threads; t++ {
		ma := f.lead.ThreadActive(t)
		fa := f.front.Active(t)
		if ma {
			nm++
		}
		if fa {
			nf++
		}
		if ma && fa {
			tid = t
		}
		if nm > 1 || nf > 1 {
			return -1, soleMany
		}
	}
	if tid >= 0 && nm == 1 && nf == 1 {
		return tid, soleOne
	}
	// At most one thread on each side but no agreement: a drain or
	// half-stopped state (e.g. post-HALT completion wind-down) that the
	// generic path owns; not a multithread decline.
	return -1, soleNone
}

// blockStep is the outcome of dispatching one in-block micro-op.
type blockStep uint8

const (
	stepIssued  blockStep = iota // issued; cycle advanced past the issue cycle
	stepStopped                  // stopAt reached first; cycle == stopAt
	stepNoHead                   // buffer empty mid-block; nothing changed
	stepBail                     // deadlock window pending; nothing changed
)

// accountGap advances the sole active thread tid idly to cycle until,
// replaying exactly what the generic path records for cycles
// [f.cycle, until) when that thread is the best blocker: idle attribution
// segment by binding threshold in classification order (fetch
// eligibility, then the scoreboard's binding hazard, then the sequential
// unit), and the fetch unit serving only that thread.
func (f *frontEnd) accountGap(tid int, eligible, minIssue int64, kind pipeline.HazardKind, free, until int64) {
	c := f.cycle
	if c >= until {
		return
	}
	if e := min(until, eligible); e > c {
		f.stats.IdleCycles += e - c
		f.stats.IdleByKind[pipeline.HazardFetch] += e - c
		c = e
	}
	if m := min(until, minIssue); m > c {
		f.stats.IdleCycles += m - c
		f.stats.IdleByKind[kind] += m - c
		c = m
	}
	if fr := min(until, free); fr > c {
		f.stats.IdleCycles += fr - c
		f.stats.IdleByKind[pipeline.HazardStructural] += fr - c
	}
	f.front.FetchRun(tid, f.cycle, until-1)
	f.cycle = until
}

// issuedAt finishes the closed-form issue of one of tid's micro-ops at
// cycle c: the scheduler's rotation, the cycle's fetch, and the
// deadlock-window anchor, as the generic Step records them.
func (f *frontEnd) issuedAt(tid int, c int64) {
	f.lastIssue = c
	if f.cfg.Scheduler != SchedFixed {
		f.front.MarkPicked(tid)
	}
	f.front.FetchRun(tid, c, c)
}

// dispatchOne issues the head micro-op of tid at the earliest legal
// cycle, replaying idle, stall, and fetch accounting for every skipped
// cycle. On a trap the processor is left exactly where the generic path
// leaves it: op popped, stall recorded, cycle at the issue cycle,
// nothing else updated.
func (f *frontEnd) dispatchOne(tid int, stopAt int64) (blockStep, error) {
	head, ok := f.front.Head(tid)
	if !ok {
		return stepNoHead, nil
	}
	d := head.D
	eligible := head.EligibleAt()
	minIssue, kind := f.sb.MinIssue(tid, d)
	free := f.unitFreeAt(d)
	issueC := max(f.cycle, eligible, minIssue, free)
	if issueC >= stopAt {
		// The issue lands at or past the stop cycle: account the idle
		// prefix up to stopAt and leave the op buffered.
		if stopAt-1-f.lastIssue > f.cfg.DeadlockWindow {
			return stepBail, nil
		}
		f.accountGap(tid, eligible, minIssue, kind, free, stopAt)
		return stepStopped, nil
	}
	if issueC-1-f.lastIssue > f.cfg.DeadlockWindow {
		// The generic path would raise the deadlock error inside this
		// idle span; let it.
		return stepBail, nil
	}
	f.accountGap(tid, eligible, minIssue, kind, free, issueC)

	// Issue at issueC, replicating issue() for an in-block op (never a
	// control-flow, thread, or blocking micro-op, so the outcome is a
	// fall-through on every lane).
	f.front.PopHead(tid)
	f.accountStall(d, eligible, minIssue, kind, issueC)
	if f.gang == nil {
		if _, err := f.lead.ExecDecoded(tid, d); err != nil {
			return stepIssued, err
		}
		f.record(tid, d, issueC)
	} else {
		f.gang.execLanes(tid, d, issueC)
		if f.lead == nil {
			return stepIssued, nil // every lane trapped
		}
	}
	f.issuedAt(tid, issueC)
	f.cycle = issueC + 1
	return stepIssued, nil
}

// fusedStatus is the outcome of attempting a fused superinstruction.
type fusedStatus uint8

const (
	fusedDone fusedStatus = iota // all constituents issued back to back
	fusedFall                    // preconditions unmet; dispatch constituents singly
)

// dispatchFused issues a fused superinstruction in one machine call per
// lane when the closed form can prove the generic path would issue its
// constituents back to back: every constituent buffered and eligible at
// its staggered cycle, no external scoreboard dependence binding later
// (in-group dependences sustain one-cycle stagger by the fusion-set
// construction — see isa/blocks.go), and the whole group inside the stop
// window. Anything unproven falls back to singleton dispatch, which is
// always exact.
func (f *frontEnd) dispatchFused(tid int, bo *isa.BlockOp, stopAt int64) fusedStatus {
	k := len(bo.Ops)
	head, ok := f.front.Head(tid)
	if !ok || head.PC != bo.PC {
		return fusedFall
	}
	eligible := head.EligibleAt()
	minIssue, kind := f.sb.MinIssue(tid, bo.Ops[0])
	// Fusible ops never use a sequential unit (no mul/div), so free == 0.
	issueC := max(f.cycle, eligible, minIssue)
	if issueC+int64(k) > stopAt || issueC-1-f.lastIssue > f.cfg.DeadlockWindow {
		return fusedFall
	}
	for j := 1; j < k; j++ {
		e, ok := f.front.Entry(tid, j)
		if !ok || e.PC != bo.PC+j {
			return fusedFall
		}
		if e.EligibleAt() > issueC+int64(j) {
			return fusedFall
		}
		// External dependences only; in-group producers (recorded below)
		// are always satisfied at stagger 1.
		if ext, _ := f.sb.MinIssue(tid, bo.Ops[j]); ext > issueC+int64(j) {
			return fusedFall
		}
	}
	f.accountGap(tid, eligible, minIssue, kind, 0, issueC)

	// One architectural call per lane for the whole superinstruction
	// (accounting below reads no machine state), then the per-constituent
	// issue bookkeeping at cycles issueC..issueC+k-1, exactly as the
	// generic path would have recorded it.
	if f.gang == nil {
		f.lead.ExecFused(tid, bo.Ops)
	} else {
		for _, li := range f.gang.live {
			f.lanes[li].ExecFused(tid, bo.Ops)
		}
	}
	for j := 0; j < k; j++ {
		c := issueC + int64(j)
		h := f.front.PopHead(tid)
		d := bo.Ops[j]
		mi, kd := f.sb.MinIssue(tid, d)
		f.accountStall(d, h.EligibleAt(), mi, kd, c)
		f.record(tid, d, c)
		f.issuedAt(tid, c)
	}
	f.cycle = issueC + int64(k)
	return fusedDone
}

// runBlock dispatches from the sole active thread's current block until
// the block ends, stopAt is reached, or a fallback surface appears. It
// reports whether it made progress; ran=false means the caller must take
// a generic Step.
func (f *frontEnd) runBlock(stopAt int64) (ran bool, err error) {
	if f.lead == nil {
		return false, nil // every gang lane has left: Step reports done
	}
	tid, st := f.soleActive()
	if st != soleOne {
		if st == soleMany {
			f.blockFallbacks[fbMultithread]++
		}
		return false, nil
	}
	head, ok := f.front.Head(tid)
	if !ok {
		f.blockFallbacks[fbRefill]++
		return false, nil
	}
	blk, opIdx, sub, ok := f.blocks.Lookup(head.PC)
	if !ok {
		f.blockFallbacks[fbBoundary]++
		return false, nil
	}
	f.blockDispatches++

	progressed := false
	for oi := opIdx; oi < len(blk.Ops); oi++ {
		bo := &blk.Ops[oi]
		if len(bo.Ops) > 1 && sub == 0 && f.blockFuse {
			if f.dispatchFused(tid, bo, stopAt) == fusedDone {
				progressed = true
				continue
			}
		}
		for ci := sub; ci < len(bo.Ops); ci++ {
			step, err := f.dispatchOne(tid, stopAt)
			if err != nil {
				return true, err
			}
			switch step {
			case stepIssued:
				progressed = true
				if f.lead == nil {
					return true, nil // every gang lane trapped: the run is over
				}
			case stepStopped:
				return true, nil // idle prefix accounted: that is progress
			case stepNoHead:
				if progressed {
					return true, nil
				}
				f.blockFallbacks[fbRefill]++
				return false, nil
			case stepBail:
				if progressed {
					return true, nil
				}
				f.blockFallbacks[fbWindow]++
				return false, nil
			}
		}
		sub = 0
	}
	return true, nil
}
