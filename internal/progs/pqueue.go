package progs

import (
	"container/heap"
	"fmt"
	"math/rand"

	"repro/internal/machine"
)

// PriorityQueue is the classic associative data-structure demonstration:
// a min-priority queue where every operation is O(1) in data movement.
// Values live one per PE; a flag marks used slots. Insert picks a free slot
// with the resolver and writes the value there; extract-min finds the
// minimum with the max/min unit, locates its holder with the resolver, and
// frees the slot. No heap, no pointers, no shifting — the associative
// memory IS the queue.
//
// The kernel processes an operation tape from control memory:
// tape[i] = value+1 to insert value, 0 to extract-min, and the extracted
// values are appended to an output region. The oracle is container/heap.
func PriorityQueue(p, ops int, seed int64) Instance {
	const width = 16
	r := rand.New(rand.NewSource(seed))

	// Build a random op tape that never overfills (at most p live items)
	// and never extracts from an empty queue.
	type op struct {
		insert bool
		v      int64
	}
	var tape []op
	live := 0
	for len(tape) < ops {
		if live > 0 && (live >= p || r.Intn(2) == 0) {
			tape = append(tape, op{insert: false})
			live--
		} else {
			tape = append(tape, op{insert: true, v: r.Int63n(1000)})
			live++
		}
	}

	// Oracle: extract order via container/heap.
	h := &intHeap{}
	heap.Init(h)
	var want []int64
	for _, o := range tape {
		if o.insert {
			heap.Push(h, o.v)
		} else {
			want = append(want, heap.Pop(h).(int64))
		}
	}

	// Memory layout: tape at [0, ops) (value+1 or 0), outputs at
	// [ops, ops+len(want)).
	smem := make([]int64, ops)
	for i, o := range tape {
		if o.insert {
			smem[i] = o.v + 1
		}
	}

	src := fmt.Sprintf(`
		fclr f1           ; f1: slot in use
		li s1, 0          ; tape pointer
		li s2, %d         ; tape length
		li s3, %d         ; output pointer
	next:
		lw s4, 0(s1)
		beqz s4, extract
		; insert s4-1 into a free slot
		addi s4, s4, -1
		fnot f2, f1       ; free slots
		rfirst f3, f2     ; pick one
		pmov p1, s4 ?f3   ; write the value there
		for f1, f1, f3    ; mark used
		j step
	extract:
		rmin s5, p1 ?f1   ; global minimum of live values
		sw s5, 0(s3)
		inc s3
		pceq f4, p1, s5 ?f1
		rfirst f5, f4 ?f1 ; one holder
		fandn f1, f1, f5  ; free its slot
	step:
		inc s1
		blt s1, s2, next
		halt
	`, ops, ops)

	return Instance{
		Name:        "priority-queue",
		Width:       width,
		Source:      src,
		ScalarMem:   smem,
		ScalarWords: ops + len(want),
		Check: func(m *machine.Machine) error {
			for i, w := range want {
				if got := m.ScalarMem(ops + i); got != w {
					return fmt.Errorf("priority-queue: extract %d = %d, want %d", i, got, w)
				}
			}
			return nil
		},
	}
}

// intHeap is the container/heap oracle.
type intHeap []int64

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *intHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
