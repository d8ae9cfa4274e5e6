package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
)

// gangRandomProgram is randomBranchyProgram widened with reductions (incl.
// the non-associative saturating RSUM), flag ops, and parallel immediates,
// so lockstep divergence checks see every pipeline class. Control flow only
// moves forward, so every generated program halts.
func gangRandomProgram(r *rand.Rand, blocks int) []isa.Inst {
	var prog []isa.Inst
	type patch struct {
		at     int
		target int
	}
	var patches []patch
	blockStart := make([]int, blocks+1)

	aluOps := []isa.Op{isa.ADD, isa.SUB, isa.XOR, isa.AND, isa.OR}
	redOps := []isa.Op{isa.RSUM, isa.RMAX, isa.RMIN, isa.ROR, isa.RCOUNT, isa.RANY}
	branchOps := []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU}

	for bi := 0; bi < blocks; bi++ {
		blockStart[bi] = len(prog)
		n := 1 + r.Intn(4)
		for i := 0; i < n; i++ {
			switch r.Intn(5) {
			case 0:
				prog = append(prog, isa.Inst{
					Op: aluOps[r.Intn(len(aluOps))],
					Rd: uint8(1 + r.Intn(15)), Ra: uint8(r.Intn(16)), Rb: uint8(r.Intn(16)),
				})
			case 1:
				prog = append(prog, isa.Inst{
					Op: isa.ADDI, Rd: uint8(1 + r.Intn(15)), Ra: uint8(r.Intn(16)),
					Imm: int32(r.Intn(64)),
				})
			case 2:
				prog = append(prog, isa.Inst{
					Op: isa.PADD, Rd: uint8(1 + r.Intn(15)), Ra: uint8(r.Intn(16)),
					Rb: uint8(r.Intn(16)), SB: r.Intn(2) == 0,
				})
			case 3:
				op := redOps[r.Intn(len(redOps))]
				in := isa.Inst{Op: op, Rd: uint8(1 + r.Intn(15)), Ra: uint8(r.Intn(16))}
				if isa.Lookup(op).SrcAKind == isa.KindFlag {
					in.Ra &= 7
				}
				prog = append(prog, in.Canonical())
			default:
				prog = append(prog, isa.Inst{
					Op: isa.PCLT, Rd: uint8(r.Intn(8)), Ra: uint8(r.Intn(16)),
					Rb: uint8(r.Intn(16)),
				}.Canonical())
			}
		}
		if bi < blocks-1 {
			target := bi + 1 + r.Intn(blocks-bi-1) + 1
			if target > blocks {
				target = blocks
			}
			switch r.Intn(3) {
			case 0:
				prog = append(prog, isa.Inst{
					Op: branchOps[r.Intn(len(branchOps))],
					Rd: uint8(r.Intn(16)), Ra: uint8(r.Intn(16)),
				})
				patches = append(patches, patch{at: len(prog) - 1, target: target})
			case 1:
				prog = append(prog, isa.Inst{Op: isa.J})
				patches = append(patches, patch{at: len(prog) - 1, target: target})
			}
		}
	}
	blockStart[blocks] = len(prog)
	prog = append(prog, isa.Inst{Op: isa.HALT})
	for _, p := range patches {
		prog[p.at].Imm = int32(blockStart[p.target])
	}
	return prog
}

// laneSeed is one lane's randomized architectural input: scalar registers
// s1..s7 of thread 0 and parallel registers p1..p3 of every PE.
type laneSeed struct {
	sregs [7]int64
	pregs [3][]int64
}

func newLaneSeed(r *rand.Rand, pes int) laneSeed {
	var s laneSeed
	for i := range s.sregs {
		s.sregs[i] = int64(r.Intn(256))
	}
	for i := range s.pregs {
		s.pregs[i] = make([]int64, pes)
		for pe := range s.pregs[i] {
			s.pregs[i][pe] = int64(r.Intn(256))
		}
	}
	return s
}

func (s laneSeed) apply(m *machine.Machine) {
	for i, v := range s.sregs {
		m.SetScalar(0, uint8(i+1), v)
	}
	for i := range s.pregs {
		for pe, v := range s.pregs[i] {
			m.SetParallel(0, pe, uint8(i+1), v)
		}
	}
}

// soloRun runs one lane's inputs on an ordinary solo processor and returns
// its terminal snapshot, statistics, and error.
func soloRun(t *testing.T, cfg Config, dp *isa.DecodedProgram, seed laneSeed, maxCycles int64) ([]byte, Stats, error) {
	t.Helper()
	p, err := NewDecoded(cfg, dp)
	if err != nil {
		t.Fatal(err)
	}
	seed.apply(p.Machine())
	stats, runErr := p.Run(maxCycles)
	return p.Snapshot(), stats, runErr
}

// continuePeeled resumes a peeled lane's snapshot on a solo processor and
// returns the final snapshot.
func continuePeeled(t *testing.T, cfg Config, dp *isa.DecodedProgram, snap []byte, maxCycles int64) []byte {
	t.Helper()
	p, err := NewDecoded(cfg, dp)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(maxCycles); err != nil {
		t.Fatalf("peeled continuation: %v", err)
	}
	return p.Snapshot()
}

// TestGangMatchesSoloRandom is the gang correctness pin: random forward-
// branching programs over all three instruction classes, four lanes with
// independently randomized register state. Whatever path a lane takes out
// of the gang — lockstep completion, divergence peel, or trap — its final
// architectural state must be bit-identical to a solo run, and lanes that
// complete in lockstep must report statistics identical to solo.
func TestGangMatchesSoloRandom(t *testing.T) {
	const lanes = 4
	const budget = 2_000_000
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prog := gangRandomProgram(r, 2+r.Intn(10))
		dp, err := isa.DecodeProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		mc := machine.Config{PEs: 4, Threads: 1, Width: 8}
		cfg := Config{Machine: mc, Arity: 4}

		seeds := make([]laneSeed, lanes)
		soloSnaps := make([][]byte, lanes)
		soloStats := make([]Stats, lanes)
		soloErrs := make([]error, lanes)
		for i := range seeds {
			seeds[i] = newLaneSeed(r, mc.PEs)
			soloSnaps[i], soloStats[i], soloErrs[i] = soloRun(t, cfg, dp, seeds[i], budget)
		}

		g, err := NewGangDecoded(cfg, dp, lanes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seeds {
			seeds[i].apply(g.Lane(i))
		}
		res := g.Run(budget)

		for i, lr := range res {
			if lr.Peeled {
				got := continuePeeled(t, cfg, dp, lr.Snapshot, budget)
				if !bytes.Equal(got, soloSnaps[i]) {
					t.Errorf("seed %d lane %d: peeled continuation snapshot differs from solo", seed, i)
					return false
				}
				continue
			}
			if (lr.Err == nil) != (soloErrs[i] == nil) {
				t.Errorf("seed %d lane %d: gang err %v, solo err %v", seed, i, lr.Err, soloErrs[i])
				return false
			}
			if lr.Err != nil && lr.Err.Error() != soloErrs[i].Error() {
				t.Errorf("seed %d lane %d: gang err %q, solo err %q", seed, i, lr.Err, soloErrs[i])
				return false
			}
			if !bytes.Equal(g.Lane(i).Snapshot(), soloSnaps[i]) {
				t.Errorf("seed %d lane %d: lockstep snapshot differs from solo", seed, i)
				return false
			}
			if lr.Err == nil && !reflect.DeepEqual(lr.Stats, soloStats[i]) {
				t.Errorf("seed %d lane %d: gang stats %+v, solo stats %+v", seed, i, lr.Stats, soloStats[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func buildGangAsm(t *testing.T, cfg Config, src string, lanes int) (*Gang, *isa.DecodedProgram) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := isa.DecodeProgram(prog.Insts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGangDecoded(cfg, dp, lanes)
	if err != nil {
		t.Fatal(err)
	}
	return g, dp
}

// TestGangDivergencePeel forces a mid-program branch divergence: lane 1
// loads a different word and takes the other branch arm. The divergent lane
// must peel and, resumed solo from its snapshot, finish bit-identical to a
// never-ganged run; the surviving lanes must be completely unaffected
// (snapshots AND statistics identical to solo).
func TestGangDivergencePeel(t *testing.T) {
	const src = `
		lw s1, 0(s0)
		bnez s1, big
		addi s2, s0, 5
		j fin
	big:
		addi s2, s0, 9
	fin:
		rsum s3, p1
		sw s2, 1(s0)
		halt
	`
	mc := machine.Config{PEs: 4, Threads: 1, Width: 16}
	cfg := Config{Machine: mc, Arity: 4}
	const lanes = 4
	g, dp := buildGangAsm(t, cfg, src, lanes)

	mems := [lanes][]int64{{0}, {1}, {0}, {0}}
	soloSnaps := make([][]byte, lanes)
	soloStats := make([]Stats, lanes)
	for i := 0; i < lanes; i++ {
		p, err := NewDecoded(cfg, dp)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Machine().LoadScalarMem(mems[i]); err != nil {
			t.Fatal(err)
		}
		soloStats[i], err = p.Run(100000)
		if err != nil {
			t.Fatal(err)
		}
		soloSnaps[i] = p.Snapshot()

		if err := g.Lane(i).LoadScalarMem(mems[i]); err != nil {
			t.Fatal(err)
		}
	}

	res := g.Run(100000)
	if !res[1].Peeled {
		t.Fatalf("lane 1 (divergent branch) not peeled: %+v", res[1])
	}
	got := continuePeeled(t, cfg, dp, res[1].Snapshot, 100000)
	if !bytes.Equal(got, soloSnaps[1]) {
		t.Error("peeled lane 1 continuation differs from solo run")
	}
	for _, i := range []int{0, 2, 3} {
		if res[i].Peeled || res[i].Err != nil {
			t.Fatalf("surviving lane %d: %+v", i, res[i])
		}
		if !bytes.Equal(g.Lane(i).Snapshot(), soloSnaps[i]) {
			t.Errorf("surviving lane %d snapshot differs from solo", i)
		}
		if !reflect.DeepEqual(res[i].Stats, soloStats[i]) {
			t.Errorf("surviving lane %d stats %+v, solo %+v", i, res[i].Stats, soloStats[i])
		}
	}
}

// TestGangTrapFinalizes pins solo trap semantics inside a gang: a lane that
// traps reports the identical error and identical statistics to a solo run
// (the trapping instruction is not counted), and the other lanes finish
// untouched.
func TestGangTrapFinalizes(t *testing.T) {
	const src = `
		lw s1, 0(s0)
		lw s2, 0(s1)
		halt
	`
	mc := machine.Config{PEs: 4, Threads: 1, Width: 32}
	cfg := Config{Machine: mc, Arity: 4}
	g, dp := buildGangAsm(t, cfg, src, 2)

	mems := [2][]int64{{1}, {1 << 20}} // lane 1's second load is out of range
	soloSnaps := make([][]byte, 2)
	soloStats := make([]Stats, 2)
	soloErrs := make([]error, 2)
	for i := 0; i < 2; i++ {
		p, err := NewDecoded(cfg, dp)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Machine().LoadScalarMem(mems[i]); err != nil {
			t.Fatal(err)
		}
		soloStats[i], soloErrs[i] = p.Run(100000)
		soloSnaps[i] = p.Snapshot()
		if err := g.Lane(i).LoadScalarMem(mems[i]); err != nil {
			t.Fatal(err)
		}
	}
	if soloErrs[1] == nil {
		t.Fatal("lane 1 solo run did not trap; test is vacuous")
	}

	res := g.Run(100000)
	if res[1].Err == nil || res[1].Err.Error() != soloErrs[1].Error() {
		t.Errorf("lane 1 gang err %v, solo err %v", res[1].Err, soloErrs[1])
	}
	if !reflect.DeepEqual(res[1].Stats, soloStats[1]) {
		t.Errorf("trapped lane stats %+v, solo %+v", res[1].Stats, soloStats[1])
	}
	if res[0].Err != nil || res[0].Peeled {
		t.Fatalf("lane 0: %+v", res[0])
	}
	for i := 0; i < 2; i++ {
		if !bytes.Equal(g.Lane(i).Snapshot(), soloSnaps[i]) {
			t.Errorf("lane %d snapshot differs from solo", i)
		}
	}
}

// TestGangTrapLowestPE pins the lowest-PE trap rule through the gang path:
// when several PEs trap on one parallel memory op, the reported PE must be
// the lowest — identical to solo — in every lane.
func TestGangTrapLowestPE(t *testing.T) {
	const src = `
		plw p2, 0(p1)
		halt
	`
	mc := machine.Config{PEs: 4, Threads: 1, Width: 32, LocalMemWords: 16}
	cfg := Config{Machine: mc, Arity: 4}
	g, dp := buildGangAsm(t, cfg, src, 2)

	// Lane 0 is clean; lane 1 has bad addresses in PEs 1 and 3.
	for i := 0; i < 2; i++ {
		if i == 1 {
			g.Lane(i).SetParallel(0, 1, 1, 9999)
			g.Lane(i).SetParallel(0, 3, 1, 8888)
		}
	}
	p, err := NewDecoded(cfg, dp)
	if err != nil {
		t.Fatal(err)
	}
	p.Machine().SetParallel(0, 1, 1, 9999)
	p.Machine().SetParallel(0, 3, 1, 8888)
	_, soloErr := p.Run(100000)
	if soloErr == nil {
		t.Fatal("solo run did not trap; test is vacuous")
	}

	res := g.Run(100000)
	if res[1].Err == nil || res[1].Err.Error() != soloErr.Error() {
		t.Errorf("lane 1 gang err %v, solo err %v", res[1].Err, soloErr)
	}
	if res[0].Err != nil {
		t.Errorf("clean lane 0 err: %v", res[0].Err)
	}
}

// TestGangBlockingDivergencePeel exercises the pre-issue divergence check:
// two lanes send their first interthread message to different workers (the
// target is data-dependent), so one lane's worker has mail while the
// other's mailbox is empty at the same TRECV — a blocked-status mismatch
// with no prior Outcome divergence. The minority lane must peel before the
// TRECV executes and still finish bit-identical to solo.
func TestGangBlockingDivergencePeel(t *testing.T) {
	const src = `
		lw s3, 0(s0)
		tspawn s1, w1
		tspawn s2, w2
		li s5, 1
		sub s6, s5, s3
		add s7, s1, s3
		add s8, s1, s6
		li s4, 77
		tsend s7, s4
		li s4, 88
		tsend s8, s4
		tjoin s1
		tjoin s2
		halt
	w1:
		trecv s1
		sw s1, 2(s0)
		texit
	w2:
		trecv s1
		sw s1, 3(s0)
		texit
	`
	mc := machine.Config{PEs: 4, Threads: 4, Width: 16}
	cfg := Config{Machine: mc, Arity: 4}
	g, dp := buildGangAsm(t, cfg, src, 2)

	mems := [2][]int64{{0}, {1}}
	soloSnaps := make([][]byte, 2)
	for i := 0; i < 2; i++ {
		p, err := NewDecoded(cfg, dp)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Machine().LoadScalarMem(mems[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(100000); err != nil {
			t.Fatal(err)
		}
		soloSnaps[i] = p.Snapshot()
		if err := g.Lane(i).LoadScalarMem(mems[i]); err != nil {
			t.Fatal(err)
		}
	}

	res := g.Run(100000)
	if !res[1].Peeled {
		t.Fatalf("lane 1 (divergent mailbox) not peeled: %+v", res[1])
	}
	got := continuePeeled(t, cfg, dp, res[1].Snapshot, 100000)
	if !bytes.Equal(got, soloSnaps[1]) {
		t.Error("peeled lane 1 continuation differs from solo run")
	}
	if res[0].Err != nil || res[0].Peeled {
		t.Fatalf("lane 0: %+v", res[0])
	}
	if !bytes.Equal(g.Lane(0).Snapshot(), soloSnaps[0]) {
		t.Error("lane 0 snapshot differs from solo")
	}
}

// TestGangResetReuse pins the pool contract: a Reset gang re-runs the same
// inputs to bit-identical results without reallocating its state planes.
func TestGangResetReuse(t *testing.T) {
	const src = `
		lw s1, 0(s0)
		rsum s2, p1
		add s3, s1, s2
		sw s3, 1(s0)
		halt
	`
	mc := machine.Config{PEs: 4, Threads: 1, Width: 16}
	cfg := Config{Machine: mc, Arity: 4}
	g, _ := buildGangAsm(t, cfg, src, 3)

	load := func() {
		for i := 0; i < 3; i++ {
			if err := g.Lane(i).LoadScalarMem([]int64{int64(10 * (i + 1))}); err != nil {
				t.Fatal(err)
			}
			g.Lane(i).SetParallel(0, 0, 1, int64(i+1))
		}
	}
	load()
	res := g.Run(100000)
	first := make([][]byte, 3)
	for i := 0; i < 3; i++ {
		if res[i].Err != nil || res[i].Peeled {
			t.Fatalf("run 1 lane %d: %+v", i, res[i])
		}
		first[i] = g.Lane(i).Snapshot()
	}

	g.Reset()
	if g.LiveLanes() != 3 {
		t.Fatalf("live lanes after Reset = %d, want 3", g.LiveLanes())
	}
	load()
	res = g.Run(100000)
	for i := 0; i < 3; i++ {
		if res[i].Err != nil || res[i].Peeled {
			t.Fatalf("run 2 lane %d: %+v", i, res[i])
		}
		if !bytes.Equal(g.Lane(i).Snapshot(), first[i]) {
			t.Errorf("lane %d: second run after Reset differs from first", i)
		}
	}
}

// TestGangRejectsUnsupported pins the constructor's exclusions.
func TestGangRejectsUnsupported(t *testing.T) {
	dp, err := isa.DecodeProgram([]isa.Inst{{Op: isa.HALT}})
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.Config{PEs: 4, Threads: 2, Width: 8}
	cases := []struct {
		name string
		cfg  Config
		n    int
		want string
	}{
		{"smt", Config{Machine: mc, SMT: true}, 2, "SMT"},
		{"trace", Config{Machine: mc, TraceDepth: -1}, 2, "tracing"},
		{"structural", Config{Machine: mc, StructuralNetworks: true}, 2, "structural"},
		{"zero lanes", Config{Machine: mc}, 0, "lane"},
	}
	for _, tc := range cases {
		if _, err := NewGangDecoded(tc.cfg, dp, tc.n); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestGangStepZeroAlloc extends the zero-allocation guarantee to the shared
// cycle loop at both lane counts: once a gang (or a solo processor running
// the same loop) is warm, Step must not allocate.
func TestGangStepZeroAlloc(t *testing.T) {
	const src = `
		li s1, 30000
	loop:
		rsum s2, p1
		padd p2, p2, s2
		addi s1, s1, -1
		bnez s1, loop
		halt
	`
	mc := machine.Config{PEs: 16, Threads: 2, Width: 8, LocalMemWords: 64}
	cfg := Config{Machine: mc, Arity: 4}
	g, dp := buildGangAsm(t, cfg, src, 8)
	solo, err := NewDecoded(cfg, dp)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		step func() (bool, error)
	}{{"gang", g.Step}, {"solo", solo.Step}} {
		for i := 0; i < 500; i++ {
			if _, err := tc.step(); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(2000, func() {
			if _, err := tc.step(); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%s Step allocates %.2f/cycle, want 0", tc.name, avg)
		}
	}
}
