package machine

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
)

func snapMachine(t *testing.T) *Machine {
	t.Helper()
	prog := asm.MustAssemble(`
		tspawn s1, worker
		pidx p1
		rmax s2, p1
		tsend s1, s2
		halt
	worker:
		trecv s3
		texit
	`)
	m, err := New(Config{PEs: 4, Threads: 4, Width: 16, LocalMemWords: 8}, prog.Insts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSnapshotRoundTrip(t *testing.T) {
	m := snapMachine(t)
	// Execute a few instructions to build interesting state.
	for i := 0; i < 4; i++ {
		if _, err := m.Exec(0, m.Program()[m.PC(0)]); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()

	// Restore into a fresh machine and compare observable state.
	m2 := snapMachine(t)
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < 4; tid++ {
		if m2.ThreadActive(tid) != m.ThreadActive(tid) {
			t.Errorf("thread %d active mismatch", tid)
		}
		if m2.PC(tid) != m.PC(tid) {
			t.Errorf("thread %d pc mismatch", tid)
		}
		for r := uint8(1); r < 16; r++ {
			if m2.Scalar(tid, r) != m.Scalar(tid, r) {
				t.Errorf("thread %d s%d mismatch", tid, r)
			}
		}
		if m2.MailboxLen(tid) != m.MailboxLen(tid) {
			t.Errorf("thread %d mailbox mismatch", tid)
		}
	}
	for pe := 0; pe < 4; pe++ {
		for r := uint8(1); r < 16; r++ {
			if m2.Parallel(0, pe, r) != m.Parallel(0, pe, r) {
				t.Errorf("PE %d p%d mismatch", pe, r)
			}
		}
	}
}

// TestSnapshotResumeDeterminism: run half a program, snapshot, finish on
// both the original and the restored machine; final states must agree.
func TestSnapshotResumeDeterminism(t *testing.T) {
	run := func(m *Machine, steps int) {
		for i := 0; i < steps && !m.Halted(); i++ {
			tid := -1
			for c := 0; c < m.Config().Threads; c++ {
				if m.ThreadActive(c) && !m.Blocked(c, m.Program()[m.PC(c)]) {
					tid = c
					break
				}
			}
			if tid < 0 {
				t.Fatal("deadlock")
			}
			if _, err := m.Exec(tid, m.Program()[m.PC(tid)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := snapMachine(t)
	run(a, 3)
	snap := a.Snapshot()
	b := snapMachine(t)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	run(a, 100)
	run(b, 100)
	if !a.Halted() || !b.Halted() {
		t.Fatal("programs did not halt")
	}
	for tid := 0; tid < 4; tid++ {
		for r := uint8(1); r < 16; r++ {
			if a.Scalar(tid, r) != b.Scalar(tid, r) {
				t.Errorf("divergence: thread %d s%d: %d vs %d", tid, r, a.Scalar(tid, r), b.Scalar(tid, r))
			}
		}
	}
}

func TestSnapshotRejectsMismatchedMachine(t *testing.T) {
	m := snapMachine(t)
	snap := m.Snapshot()

	// Different PE count.
	other, _ := New(Config{PEs: 8, Threads: 4, Width: 16, LocalMemWords: 8}, m.Program())
	if err := other.Restore(snap); err == nil {
		t.Error("snapshot accepted by a machine with a different PE count")
	}
	// Different program.
	prog2 := asm.MustAssemble("nop\nhalt")
	other2, _ := New(Config{PEs: 4, Threads: 4, Width: 16, LocalMemWords: 8}, prog2.Insts)
	if err := other2.Restore(snap); err == nil {
		t.Error("snapshot accepted by a machine with a different program")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	m := snapMachine(t)
	snap := m.Snapshot()
	if err := m.Restore(snap[:len(snap)-5]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if err := m.Restore(append(append([]byte(nil), snap...), 0, 0, 0, 0, 0, 0, 0, 0)); err == nil {
		t.Error("oversized snapshot accepted")
	}
	bad := append([]byte(nil), snap...)
	bad[0] ^= 0xff
	if err := m.Restore(bad); err == nil {
		t.Error("corrupted magic accepted")
	}

	// Validate-then-commit: a rejected image leaves the machine exactly as
	// it was. The target has run a few instructions, so any partial write
	// of the (power-on) source image would show in its snapshot.
	for i := 0; i < 4; i++ {
		if _, err := m.Exec(0, m.Program()[m.PC(0)]); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Snapshot()
	const thread0 = 4 // words: magic, version, fingerprint, halted
	flag0 := thread0 + 4*(3+isa.NumScalarRegs) + isa.NumParallelRegs
	set := func(word int, v int64) []byte {
		img := append([]byte(nil), snap...)
		binary.LittleEndian.PutUint64(img[word*8:], uint64(v))
		return img
	}
	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"pc 2^40", set(thread0+1, 1<<40)},
		{"pc -1", set(thread0+1, -1)},
		{"state 99", set(thread0, 99)},
		{"flag word 2", set(flag0, 2)},
		{"truncated in thread records", snap[:(thread0+2)*8]},
		{"truncated in memories", snap[:len(snap)-8]},
	} {
		if err := m.Restore(tc.img); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", tc.name)
		}
		if !bytes.Equal(m.Snapshot(), before) {
			t.Errorf("%s: rejected Restore modified the machine", tc.name)
		}
	}
}

// TestRestoreZeroAlloc pins the success path of Restore allocation-free:
// the serving tier restores every peeled gang lane.
func TestRestoreZeroAlloc(t *testing.T) {
	m := snapMachine(t)
	for i := 0; i < 4; i++ {
		if _, err := m.Exec(0, m.Program()[m.PC(0)]); err != nil {
			t.Fatal(err)
		}
	}
	snap := m.Snapshot()
	avg := testing.AllocsPerRun(100, func() {
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("Restore allocates %.2f per call, want 0", avg)
	}
}

// Property: snapshot/restore is the identity on random machine states.
func TestSnapshotIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := snapMachine(t)
		// Randomize state.
		for tid := 0; tid < 4; tid++ {
			for reg := uint8(1); reg < 16; reg++ {
				m.SetScalar(tid, reg, r.Int63n(1<<16))
			}
			for pe := 0; pe < 4; pe++ {
				for reg := uint8(1); reg < 16; reg++ {
					m.SetParallel(tid, pe, reg, r.Int63n(1<<16))
				}
				for fl := uint8(1); fl < 8; fl++ {
					m.SetFlag(tid, pe, fl, r.Intn(2) == 0)
				}
			}
		}
		snap := m.Snapshot()
		m2 := snapMachine(t)
		if err := m2.Restore(snap); err != nil {
			t.Log(err)
			return false
		}
		// Snapshot of the restored machine must be byte-identical.
		snap2 := m2.Snapshot()
		if len(snap) != len(snap2) {
			return false
		}
		for i := range snap {
			if snap[i] != snap2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
