package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/network"
)

// Structural co-simulation: when Config.StructuralNetworks is set, every
// reduction instruction is also pushed through the structural pipelined
// network models of internal/network (the modal trees and the resolver),
// advanced one clock per simulated cycle. Each emerging result is checked
// against the functional value and against the modeled latency; any
// mismatch aborts the simulation with an error. This cross-validates the
// instruction-level timing constants (b, r) against the register-by-
// register hardware model they were derived from.

// expectedResult is a value the structural network must produce.
type expectedResult struct {
	due    int64 // exact cycle the result must emerge
	value  int64
	vector []bool
	desc   string
}

// structState holds the co-simulation state.
type structState struct {
	bank     *network.Bank
	expected map[int64]expectedResult // keyed by tag
	nextTag  int64
}

func newStructState(pes, arity int, width uint) *structState {
	return &structState{
		bank:     network.NewBank(pes, arity, width),
		expected: make(map[int64]expectedResult),
	}
}

// reduceOpFor maps ISA reductions onto network units.
func reduceOpFor(op isa.Op) network.ReduceOp {
	switch op {
	case isa.ROR:
		return network.ROpOr
	case isa.RAND:
		return network.ROpAnd
	case isa.RMAX:
		return network.ROpMax
	case isa.RMIN:
		return network.ROpMin
	case isa.RMAXU:
		return network.ROpMaxU
	case isa.RMINU:
		return network.ROpMinU
	case isa.RSUM:
		return network.ROpSum
	case isa.RCOUNT:
		return network.ROpCount
	case isa.RANY:
		return network.ROpAny
	case isa.RFIRST:
		return network.ROpFirst
	}
	panic(fmt.Sprintf("core: %v is not a reduction", op))
}

// pushReduction gathers the operands of a reduction issuing this cycle for
// thread tid and starts it through the structural network. Must be called
// before machine.Exec (RFIRST overwrites flag state).
func (f *frontEnd) pushReduction(tid int, in isa.Inst) {
	st := f.structural
	pes := f.cfg.Machine.PEs
	width := f.cfg.Machine.Width
	ones := int64(1)<<width - 1

	maskVec := make([]bool, pes)
	for pe := 0; pe < pes; pe++ {
		maskVec[pe] = f.lead.Flag(tid, pe, in.Mask)
	}
	rop := reduceOpFor(in.Op)
	tag := st.nextTag
	st.nextTag++
	due := f.cycle + int64(st.bank.Latency())
	desc := fmt.Sprintf("t%d %v @%d", tid, in, f.cycle)

	switch rop {
	case network.ROpCount, network.ROpAny, network.ROpFirst:
		flags := make([]bool, pes)
		for pe := 0; pe < pes; pe++ {
			flags[pe] = f.lead.Flag(tid, pe, in.Ra)
		}
		st.bank.PushFlags(rop, tag, flags, maskVec)
		exp := expectedResult{due: due, desc: desc}
		switch rop {
		case network.ROpCount:
			exp.value = network.CountResponders(flags, maskVec) & ones
		case network.ROpAny:
			if network.AnyResponder(flags, maskVec) {
				exp.value = 1
			}
		case network.ROpFirst:
			exp.vector = network.FirstResponder(flags, maskVec)
		}
		st.expected[tag] = exp
	default:
		vals := make([]int64, pes)
		signedVals := make([]int64, pes)
		for pe := 0; pe < pes; pe++ {
			vals[pe] = f.lead.Parallel(tid, pe, in.Ra)
			signedVals[pe] = vals[pe] << (64 - width) >> (64 - width)
		}
		st.bank.PushValues(rop, tag, vals, maskVec)
		var want int64
		switch rop {
		case network.ROpOr:
			want = network.ReduceOr(vals, maskVec)
		case network.ROpAnd:
			want = network.ReduceAnd(vals, maskVec, width)
		case network.ROpMax:
			want = network.ReduceMax(signedVals, maskVec, width) & ones
		case network.ROpMin:
			want = network.ReduceMin(signedVals, maskVec, width) & ones
		case network.ROpMaxU:
			want = network.ReduceMaxU(vals, maskVec)
		case network.ROpMinU:
			want = network.ReduceMinU(vals, maskVec, width)
		case network.ROpSum:
			want = network.ReduceSum(signedVals, maskVec, width) & ones
		}
		st.expected[tag] = expectedResult{due: due, value: want, desc: desc}
	}
}

// stepStructural advances the network bank one cycle and checks everything
// that emerged.
func (f *frontEnd) stepStructural() error {
	st := f.structural
	for _, res := range st.bank.Step() {
		exp, ok := st.expected[res.Tag]
		if !ok {
			return fmt.Errorf("core: structural network produced untracked result (tag %d, op %v)", res.Tag, res.Op)
		}
		delete(st.expected, res.Tag)
		if f.cycle != exp.due {
			return fmt.Errorf("core: %s emerged from the structural network at cycle %d, modeled %d", exp.desc, f.cycle, exp.due)
		}
		if exp.vector != nil {
			if res.Vector == nil {
				return fmt.Errorf("core: %s: expected resolver vector, got scalar", exp.desc)
			}
			for i := range exp.vector {
				if res.Vector[i] != exp.vector[i] {
					return fmt.Errorf("core: %s: resolver bit %d = %v, functional model says %v", exp.desc, i, res.Vector[i], exp.vector[i])
				}
			}
			continue
		}
		if res.Value != exp.value {
			return fmt.Errorf("core: %s: structural result %d, functional %d", exp.desc, res.Value, exp.value)
		}
	}
	return nil
}

// structuralDrained reports whether all in-flight structural results have
// been checked (consulted at the end of Run).
func (f *frontEnd) structuralDrained() error {
	if f.structural == nil || len(f.structural.expected) == 0 {
		return nil
	}
	return fmt.Errorf("core: %d reduction(s) never emerged from the structural network", len(f.structural.expected))
}
