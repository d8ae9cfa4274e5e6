package machine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/isa"
)

// Snapshot serializes the complete architectural state — thread contexts
// (state, PC, scalar registers, mailboxes), PE register and flag files,
// local memories, control-unit data memory, and the halt flag — into a
// portable byte image. Restore loads it back into a machine built with the
// same configuration and program (both are fingerprinted in the header).
//
// Snapshots capture architectural state only: they are taken between
// instructions, which is always a consistent point because Exec applies
// each instruction atomically. Microarchitectural state (pipeline
// occupancy, scoreboard) is derived and rebuilds naturally when simulation
// resumes from a quiescent point.

const (
	snapMagic   = 0x4d544153 // "MTAS"
	snapVersion = 1
)

// fingerprint hashes the configuration and program so a snapshot cannot be
// restored into an incompatible machine. Config.Engine is deliberately
// excluded: the host engine is architecturally invisible, so snapshots move
// freely between serial and sharded machines (the differential tests rely
// on byte-identical images across engines).
func (m *Machine) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(m.cfg.PEs))
	put(uint64(m.cfg.Threads))
	put(uint64(m.cfg.Width))
	put(uint64(m.cfg.LocalMemWords))
	put(uint64(m.cfg.ScalarMemWords))
	put(uint64(m.cfg.MailboxCap))
	put(uint64(len(m.prog)))
	for _, in := range m.prog {
		w, err := in.Encode()
		if err != nil {
			// Unencodable instructions cannot come from the assembler;
			// hash a placeholder so fingerprinting still works.
			w = 0xffffffff
		}
		put(uint64(w))
	}
	return h.Sum64()
}

// Snapshot returns the serialized architectural state.
func (m *Machine) Snapshot() []byte {
	var b bytes.Buffer
	w := func(v int64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		b.Write(buf[:])
	}
	w(snapMagic)
	w(snapVersion)
	w(int64(m.fingerprint()))

	if m.halted {
		w(1)
	} else {
		w(0)
	}
	for t := range m.threads {
		th := &m.threads[t]
		w(int64(th.state))
		w(int64(th.pc))
		for _, r := range th.sregs {
			w(r)
		}
		w(int64(len(th.mailbox)))
		for _, v := range th.mailbox {
			w(v)
		}
	}
	// Flat state is serialized in the original [thread][pe][reg] nesting so
	// the byte image is unchanged across the flattening of the files.
	for t := 0; t < m.cfg.Threads; t++ {
		for pe := 0; pe < m.cfg.PEs; pe++ {
			pb := t*isa.NumParallelRegs*m.cfg.PEs + pe
			for r := 0; r < isa.NumParallelRegs; r++ {
				w(m.pregs[pb+r*m.cfg.PEs])
			}
			fb := t*isa.NumFlagRegs*m.cfg.PEs + pe
			for r := 0; r < isa.NumFlagRegs; r++ {
				if m.flags[fb+r*m.cfg.PEs] {
					w(1)
				} else {
					w(0)
				}
			}
		}
	}
	for pe := 0; pe < m.cfg.PEs; pe++ {
		for _, v := range m.localMem[pe*m.cfg.LocalMemWords : (pe+1)*m.cfg.LocalMemWords] {
			w(v)
		}
	}
	for _, v := range m.scalarMem {
		w(v)
	}
	return b.Bytes()
}

// SnapshotInfo is the decoded header of a snapshot image, exposed so the
// serving tier can cheaply validate an envelope (version, machine/program
// fingerprint) before committing a warm machine to a full Restore.
type SnapshotInfo struct {
	Version     int64
	Fingerprint uint64
	Halted      bool
}

// InspectSnapshot decodes and validates the fixed header of a snapshot
// image without touching any machine state. It rejects images that are too
// short or carry the wrong magic/version; fingerprint compatibility is the
// caller's to check (Restore enforces it again regardless).
func InspectSnapshot(data []byte) (SnapshotInfo, error) {
	const header = 4 * 8 // magic, version, fingerprint, halted
	if len(data) < header {
		return SnapshotInfo{}, fmt.Errorf("machine: truncated snapshot")
	}
	word := func(i int) int64 {
		return int64(binary.LittleEndian.Uint64(data[i*8 : i*8+8]))
	}
	if word(0) != snapMagic {
		return SnapshotInfo{}, fmt.Errorf("machine: snapshot magic mismatch: %d != %d", word(0), snapMagic)
	}
	info := SnapshotInfo{
		Version:     word(1),
		Fingerprint: uint64(word(2)),
		Halted:      word(3) != 0,
	}
	if info.Version != snapVersion {
		return SnapshotInfo{}, fmt.Errorf("machine: snapshot version mismatch: %d != %d", info.Version, snapVersion)
	}
	return info, nil
}

// errTruncated rejects a snapshot image shorter than its records require.
var errTruncated = errors.New("machine: truncated snapshot")

// Restore loads a snapshot into this machine. The machine must have been
// built with the same configuration and program as the one that produced
// the snapshot. The image is validated in full before anything is written —
// exact length, thread states, active threads' PCs within [0, program
// length] (the bound Exec enforces on a next pc), mailbox lengths, and
// 0-or-1 flag words — so a rejected image leaves the machine untouched.
func (m *Machine) Restore(data []byte) error {
	word := func(i int) int64 { return int64(binary.LittleEndian.Uint64(data[i*8:])) }
	cfg := m.cfg
	const header = 4                     // magic, version, fingerprint, halted
	threadWords := 3 + isa.NumScalarRegs // state, pc, sregs, mailbox length
	peWords := isa.NumParallelRegs + isa.NumFlagRegs

	// Pass 1: validate, reading only.
	if len(data) < header*8 {
		return errTruncated
	}
	for i, h := range [...]struct {
		what string
		want int64
	}{{"magic", snapMagic}, {"version", snapVersion}, {"machine fingerprint", int64(m.fingerprint())}} {
		if v := word(i); v != h.want {
			return fmt.Errorf("machine: snapshot %s mismatch: %d != %d", h.what, v, h.want)
		}
	}
	if v := word(3); v != 0 && v != 1 {
		return fmt.Errorf("machine: snapshot halt flag %d is not 0 or 1", v)
	}
	pos := header
	for t := 0; t < cfg.Threads; t++ {
		if len(data) < (pos+threadWords)*8 {
			return errTruncated
		}
		st, pc := word(pos), word(pos+1)
		if st != int64(ThreadFree) && st != int64(ThreadActive) {
			return fmt.Errorf("machine: snapshot thread %d state %d is not a thread state", t, st)
		}
		if st == int64(ThreadActive) && (pc < 0 || pc > int64(m.dec.Len())) {
			return fmt.Errorf("machine: snapshot thread %d pc %d out of program bounds [0, %d]", t, pc, m.dec.Len())
		}
		n := word(pos + threadWords - 1)
		if n < 0 || n > int64(cfg.MailboxCap) {
			return fmt.Errorf("machine: snapshot mailbox length %d out of range", n)
		}
		pos += threadWords + int(n)
	}
	planes := pos
	size := planes + cfg.Threads*cfg.PEs*peWords + cfg.PEs*cfg.LocalMemWords + len(m.scalarMem)
	if len(data) < size*8 {
		return errTruncated
	}
	if len(data) > size*8 {
		return fmt.Errorf("machine: snapshot has %d trailing bytes", len(data)-size*8)
	}
	for i := 0; i < cfg.Threads*cfg.PEs; i++ {
		for r := 0; r < isa.NumFlagRegs; r++ {
			if v := word(planes + i*peWords + isa.NumParallelRegs + r); v != 0 && v != 1 {
				return fmt.Errorf("machine: snapshot flag word %d is not 0 or 1", v)
			}
		}
	}

	// Pass 2: commit.
	m.halted = word(3) != 0
	pos = header
	for t := range m.threads {
		th := &m.threads[t]
		th.state = ThreadState(word(pos))
		th.pc = int(word(pos + 1))
		for i := range th.sregs {
			th.sregs[i] = word(pos + 2 + i)
		}
		n := int(word(pos + threadWords - 1))
		pos += threadWords
		th.mailbox = th.mailbox[:0]
		for i := 0; i < n; i++ {
			th.mailbox = append(th.mailbox, word(pos+i))
		}
		pos += n
	}
	for t := 0; t < cfg.Threads; t++ {
		for pe := 0; pe < cfg.PEs; pe++ {
			pb := t*isa.NumParallelRegs*cfg.PEs + pe
			for i := 0; i < isa.NumParallelRegs; i++ {
				m.pregs[pb+i*cfg.PEs] = word(pos + i)
			}
			pos += isa.NumParallelRegs
			fb := t*isa.NumFlagRegs*cfg.PEs + pe
			for i := 0; i < isa.NumFlagRegs; i++ {
				m.flags[fb+i*cfg.PEs] = word(pos+i) != 0
			}
			pos += isa.NumFlagRegs
		}
	}
	for i := range m.localMem[:cfg.PEs*cfg.LocalMemWords] {
		m.localMem[i] = word(pos + i)
	}
	pos += cfg.PEs * cfg.LocalMemWords
	for i := range m.scalarMem {
		m.scalarMem[i] = word(pos + i)
	}
	return nil
}
