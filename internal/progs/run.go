package progs

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/machine"
)

// MachineConfig derives the machine configuration an instance needs at a
// given PE count and hardware thread count.
func (ins Instance) MachineConfig(pes, threads int) machine.Config {
	if threads < ins.Threads {
		threads = ins.Threads
	}
	if threads < 1 {
		threads = 1
	}
	localWords := 1024
	for _, row := range ins.LocalMem {
		if len(row) > localWords {
			localWords = len(row)
		}
	}
	scalarWords := 4096
	if n := max(len(ins.ScalarMem), ins.ScalarWords); n > scalarWords {
		scalarWords = n
	}
	return machine.Config{
		PEs:            pes,
		Threads:        threads,
		Width:          ins.Width,
		LocalMemWords:  localWords,
		ScalarMemWords: scalarWords,
	}
}

// load assembles the source and initializes a machine's memories.
func (ins Instance) load(m *machine.Machine) error {
	if err := m.LoadLocalMem(ins.LocalMem); err != nil {
		return err
	}
	if err := m.LoadScalarMem(ins.ScalarMem); err != nil {
		return err
	}
	return nil
}

const runLimit = 50_000_000

// RunCore executes the instance on the fine-grain multithreaded core and
// verifies the result.
func (ins Instance) RunCore(pes, threads, arity int) (core.Stats, error) {
	prog, err := asm.Assemble(ins.Source)
	if err != nil {
		return core.Stats{}, fmt.Errorf("%s: %w", ins.Name, err)
	}
	p, err := core.New(core.Config{Machine: ins.MachineConfig(pes, threads), Arity: arity}, prog.Insts)
	if err != nil {
		return core.Stats{}, fmt.Errorf("%s: %w", ins.Name, err)
	}
	if err := ins.load(p.Machine()); err != nil {
		return core.Stats{}, fmt.Errorf("%s: %w", ins.Name, err)
	}
	stats, err := p.Run(runLimit)
	if err != nil {
		return stats, fmt.Errorf("%s: %w", ins.Name, err)
	}
	if err := ins.Check(p.Machine()); err != nil {
		return stats, err
	}
	return stats, nil
}

// RunNonPipelined executes the instance on the non-pipelined baseline and
// verifies the result. Instances requiring multithreading are rejected.
func (ins Instance) RunNonPipelined(pes int) (baseline.Result, error) {
	if ins.Threads > 1 {
		return baseline.Result{}, fmt.Errorf("%s: needs %d threads; non-pipelined model is single-threaded", ins.Name, ins.Threads)
	}
	prog, err := asm.Assemble(ins.Source)
	if err != nil {
		return baseline.Result{}, fmt.Errorf("%s: %w", ins.Name, err)
	}
	n, err := baseline.NewNonPipelined(ins.MachineConfig(pes, 1), prog.Insts)
	if err != nil {
		return baseline.Result{}, fmt.Errorf("%s: %w", ins.Name, err)
	}
	if err := ins.load(n.Machine()); err != nil {
		return baseline.Result{}, fmt.Errorf("%s: %w", ins.Name, err)
	}
	res, err := n.Run(runLimit)
	if err != nil {
		return res, fmt.Errorf("%s: %w", ins.Name, err)
	}
	if err := ins.Check(n.Machine()); err != nil {
		return res, err
	}
	return res, nil
}

// RunCoarseGrain executes the instance on the coarse-grain multithreaded
// baseline and verifies the result.
func (ins Instance) RunCoarseGrain(pes, threads, arity int) (baseline.Result, error) {
	prog, err := asm.Assemble(ins.Source)
	if err != nil {
		return baseline.Result{}, fmt.Errorf("%s: %w", ins.Name, err)
	}
	cg, err := baseline.NewCoarseGrain(ins.MachineConfig(pes, threads), arity, prog.Insts)
	if err != nil {
		return baseline.Result{}, fmt.Errorf("%s: %w", ins.Name, err)
	}
	if err := ins.load(cg.Machine()); err != nil {
		return baseline.Result{}, fmt.Errorf("%s: %w", ins.Name, err)
	}
	res, err := cg.Run(runLimit)
	if err != nil {
		return res, fmt.Errorf("%s: %w", ins.Name, err)
	}
	if err := ins.Check(cg.Machine()); err != nil {
		return res, err
	}
	return res, nil
}

// RunCoreStructural is RunCore with structural network co-simulation
// enabled: every reduction is additionally pushed through the pipelined
// tree models and checked for value and latency.
func (ins Instance) RunCoreStructural(pes, threads, arity int) (core.Stats, error) {
	prog, err := asm.Assemble(ins.Source)
	if err != nil {
		return core.Stats{}, fmt.Errorf("%s: %w", ins.Name, err)
	}
	p, err := core.New(core.Config{
		Machine:            ins.MachineConfig(pes, threads),
		Arity:              arity,
		StructuralNetworks: true,
	}, prog.Insts)
	if err != nil {
		return core.Stats{}, fmt.Errorf("%s: %w", ins.Name, err)
	}
	if err := ins.load(p.Machine()); err != nil {
		return core.Stats{}, fmt.Errorf("%s: %w", ins.Name, err)
	}
	stats, err := p.Run(runLimit)
	if err != nil {
		return stats, fmt.Errorf("%s: %w", ins.Name, err)
	}
	if err := ins.Check(p.Machine()); err != nil {
		return stats, err
	}
	return stats, nil
}
