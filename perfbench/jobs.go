package main

import (
	"fmt"
	"slices"

	asc "repro"
	"repro/client"
	"repro/internal/ascl"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/progs"
)

// runLimit bounds every simulation the benchmark starts.
const runLimit = 50_000_000

// causes are the hazard classes Stats attributes idle and stall cycles to.
var causes = [...]string{"reduction", "broadcast-reduction", "data", "structural", "control", "sync", "fetch"}

// fallbackReasons are the block-plane decline reasons in core.Stats.
var fallbackReasons = [...]string{"multithread", "refill", "boundary", "window"}

// model sums the simulated (model) statistics of a set of jobs. Two runs
// of the same inputs must produce equal models whatever the host did.
type model struct {
	Jobs, Cycles, Instructions, Parallel, Reduction, Idle, Contention int64

	IdleBy, StallBy [len(causes)]int64
	BlockDispatches int64
	Fallbacks       [len(fallbackReasons)]int64
}

func (m *model) addCore(s core.Stats) {
	m.Jobs++
	m.Cycles += s.Cycles
	m.Instructions += s.Instructions
	m.Parallel += s.Parallel
	m.Reduction += s.Reduction
	m.Idle += s.IdleCycles
	m.Contention += s.Contention
	m.BlockDispatches += s.BlockDispatches
	for k, v := range s.IdleByKind {
		if i := hazardIndex(k); i >= 0 {
			m.IdleBy[i] += v
		}
	}
	for k, v := range s.StallByKind {
		if i := hazardIndex(k); i >= 0 {
			m.StallBy[i] += v
		}
	}
	for i, r := range fallbackReasons {
		m.Fallbacks[i] += s.BlockFallbacks[r]
	}
}

func (m *model) addASC(s asc.Stats) {
	m.Jobs++
	m.Cycles += s.Cycles
	m.Instructions += s.Instructions
	m.Parallel += s.Parallel
	m.Reduction += s.Reduction
	m.Idle += s.IdleCycles
	m.Contention += s.Contention
	m.BlockDispatches += s.BlockDispatches
	for i, c := range causes {
		m.IdleBy[i] += s.IdleByCause[c]
		m.StallBy[i] += s.StallByCause[c]
	}
	for i, r := range fallbackReasons {
		m.Fallbacks[i] += s.BlockFallbacks[r]
	}
}

// addResult adds the counts a wire result carries.
func (m *model) addResult(r *client.RunResult) {
	m.Jobs++
	m.Cycles += r.Cycles
	m.Instructions += r.Instructions
	m.Parallel += r.ParallelOps
	m.Reduction += r.ReductionOps
	m.Idle += r.IdleCycles
}

func (m *model) add(o model) {
	m.Jobs += o.Jobs
	m.Cycles += o.Cycles
	m.Instructions += o.Instructions
	m.Parallel += o.Parallel
	m.Reduction += o.Reduction
	m.Idle += o.Idle
	m.Contention += o.Contention
	m.BlockDispatches += o.BlockDispatches
	for i := range m.IdleBy {
		m.IdleBy[i] += o.IdleBy[i]
		m.StallBy[i] += o.StallBy[i]
	}
	for i := range m.Fallbacks {
		m.Fallbacks[i] += o.Fallbacks[i]
	}
}

// job is one simulation: a program (assembly or ASCL source), a machine
// geometry, the memory images it starts from, and the windows of memory
// its result is checked on.
type job struct {
	name   string
	asm    string // exactly one of asm and ascl is set
	ascl   string
	cfg    asc.Config
	local  [][]int64
	scalar []int64
	oracle func(*machine.Machine) error // the kernel's Go oracle, if it has one

	dumpScalar, dumpLocal int
}

// progsJob wraps a kernel of the progs library at a PE count.
func progsJob(ins progs.Instance, pes, threads int) *job {
	mc := ins.MachineConfig(pes, threads)
	return &job{
		name: ins.Name, asm: ins.Source,
		cfg:   asc.Config{PEs: mc.PEs, Threads: mc.Threads, Width: mc.Width, LocalMemWords: mc.LocalMemWords, Arity: 4},
		local: ins.LocalMem, scalar: ins.ScalarMem, oracle: ins.Check,
	}
}

func (j *job) source() (kind, src string) {
	if j.ascl != "" {
		return "ascl", j.ascl
	}
	return "asm", j.asm
}

// request is the job as a wire request.
func (j *job) request() client.RunRequest {
	c := j.cfg
	return client.RunRequest{
		ASCL: j.ascl, Asm: j.asm,
		Config: client.MachineConfig{PEs: c.PEs, Threads: c.Threads, Width: c.Width,
			LocalMemWords: c.LocalMemWords, Arity: c.Arity},
		LocalMem: j.local, ScalarMem: j.scalar,
		DumpScalar: j.dumpScalar, DumpLocal: j.dumpLocal,
	}
}

// coreConfig is the core configuration asc.New builds for cfg.
func coreConfig(c asc.Config) core.Config {
	return core.Config{
		Machine: machine.Config{PEs: c.PEs, Threads: c.Threads, Width: c.Width,
			LocalMemWords: c.LocalMemWords, Engine: c.Engine},
		Arity: c.Arity,
	}
}

// decode compiles a job's program to its decoded form.
func decode(j *job) (*isa.DecodedProgram, error) {
	var insts []isa.Inst
	if j.ascl != "" {
		res, err := ascl.Compile(j.ascl)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.name, err)
		}
		insts = res.Program.Insts
	} else {
		p, err := asm.Assemble(j.asm)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.name, err)
		}
		insts = p.Insts
	}
	return isa.DecodeProgram(insts)
}

// compileASC compiles a job's program through the public facade.
func compileASC(j *job) (*asc.Program, error) {
	if j.ascl != "" {
		p, _, err := asc.CompileASCL(j.ascl)
		return p, err
	}
	return asc.Assemble(j.asm)
}

func load(m *machine.Machine, local [][]int64, scalar []int64) error {
	if err := m.LoadLocalMem(local); err != nil {
		return err
	}
	return m.LoadScalarMem(scalar)
}

// outcome is what a job left behind: its model statistics, the memory
// windows a server would dump, and (for the ladder) its final
// architectural snapshot.
type outcome struct {
	stats    core.Stats
	scalar   []int64
	local    [][]int64
	snapshot []byte
}

// reference runs jobs on in-process cores, reusing decoded programs and
// processors, and checks each with its kernel oracle when it has one. Its
// runs are what every served, replayed or ganged result is compared with.
type reference struct {
	progs     map[string]*isa.DecodedProgram // by source
	procs     map[string]*core.Processor     // by configuration key
	snapshots bool                           // keep each final snapshot
}

func newReference(snapshots bool) *reference {
	return &reference{progs: map[string]*isa.DecodedProgram{}, procs: map[string]*core.Processor{}, snapshots: snapshots}
}

func (r *reference) run(j *job) (*outcome, error) {
	kind, src := j.source()
	dp := r.progs[kind+src]
	if dp == nil {
		var err error
		if dp, err = decode(j); err != nil {
			return nil, err
		}
		r.progs[kind+src] = dp
	}
	p := r.procs[j.cfg.Key()]
	if p == nil {
		var err error
		if p, err = core.NewDecoded(coreConfig(j.cfg), dp); err != nil {
			return nil, err
		}
		r.procs[j.cfg.Key()] = p
	} else {
		p.SetDecoded(dp)
	}
	if err := load(p.Machine(), j.local, j.scalar); err != nil {
		return nil, fmt.Errorf("%s: %w", j.name, err)
	}
	st, err := p.Run(runLimit)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", j.name, err)
	}
	if j.oracle != nil {
		if err := j.oracle(p.Machine()); err != nil {
			return nil, err
		}
	}
	o := capture(p.Machine(), j, st)
	if r.snapshots {
		o.snapshot = p.Machine().Snapshot()
	}
	return o, nil
}

func (r *reference) close() {
	for _, p := range r.procs {
		p.Machine().Close()
	}
}

func capture(m *machine.Machine, j *job, st core.Stats) *outcome {
	o := &outcome{stats: st}
	for w := 0; w < j.dumpScalar; w++ {
		o.scalar = append(o.scalar, m.ScalarMem(w))
	}
	if j.dumpLocal > 0 {
		for pe := 0; pe < m.Config().PEs; pe++ {
			row := make([]int64, j.dumpLocal)
			for w := range row {
				row[w] = m.LocalMem(pe, w)
			}
			o.local = append(o.local, row)
		}
	}
	return o
}

// checkResult compares a served result with the direct run of its job:
// dumped words and instruction count must match exactly, and so must the
// cycle count when exactCycles is set. A gang lane that peeled and resumed
// solo may differ in cycles, because a restore starts from empty functional
// units.
func checkResult(r *client.RunResult, want *outcome, exactCycles bool) error {
	if r.Instructions != want.stats.Instructions {
		return fmt.Errorf("instructions %d, direct run %d", r.Instructions, want.stats.Instructions)
	}
	if exactCycles && r.Cycles != want.stats.Cycles {
		return fmt.Errorf("cycles %d, direct run %d", r.Cycles, want.stats.Cycles)
	}
	if !slices.Equal(r.ScalarMem, want.scalar) {
		return fmt.Errorf("scalar words %v, direct run %v", r.ScalarMem, want.scalar)
	}
	if len(r.LocalMem) != len(want.local) {
		return fmt.Errorf("%d local rows, direct run %d", len(r.LocalMem), len(want.local))
	}
	for pe := range want.local {
		if !slices.Equal(r.LocalMem[pe], want.local[pe]) {
			return fmt.Errorf("pe %d local words %v, direct run %v", pe, r.LocalMem[pe], want.local[pe])
		}
	}
	return nil
}

// hazardIndex maps a hazard kind to its position in causes, or -1.
func hazardIndex(k pipeline.HazardKind) int {
	return slices.Index(causes[:], k.String())
}
