// Package progs is the library of associative kernels written in MTASC
// assembly: the classic ASC-model workloads (global max/min search,
// responder iteration with pick-one, count/sum of responders, Prim's
// minimum spanning tree via min-reduction) plus the image-processing sum
// the paper's section 6.4 motivates, and associative string search.
//
// Each kernel is packaged as an Instance: assembly source, initial PE local
// memory and control-unit data memory images, the data width it needs, and
// a Check function that verifies the machine's final state against a pure
// Go reference computation. Instances run unchanged on the fine-grain
// multithreaded core, the coarse-grain baseline, and the non-pipelined
// baseline, which is how the benchmarks compare machines.
package progs

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/network"
	"repro/internal/workload"
)

// Instance is a runnable kernel with data and a correctness oracle.
type Instance struct {
	Name      string
	Source    string
	Width     uint
	Threads   int // minimum hardware threads required (1 for most)
	LocalMem  [][]int64
	ScalarMem []int64
	// ScalarWords is the kernel's scalar-memory footprint in words when it
	// writes past its ScalarMem image (an output region); 0 means the
	// image is the whole footprint.
	ScalarWords int
	Check       func(m *machine.Machine) error
}

func mask(v int64, width uint) int64 { return v & (int64(1)<<width - 1) }

// MaxSearch finds the maximum value across all PEs with a single RMAX —
// the canonical associative search operation.
func MaxSearch(p int, seed int64) Instance {
	const width = 16
	vals := workload.Vector(p, -1000, 1000, seed)
	local := make([][]int64, p)
	want := vals[0]
	for i, v := range vals {
		local[i] = []int64{v}
		if v > want {
			want = v
		}
	}
	wantPat := mask(want, width)
	return Instance{
		Name:  "max-search",
		Width: width,
		Source: `
			plw p1, 0(p0)     ; each PE loads its value
			rmax s1, p1       ; global maximum via the max/min unit
			sw s1, 0(s0)
			halt
		`,
		LocalMem: local,
		Check: func(m *machine.Machine) error {
			if got := m.ScalarMem(0); got != wantPat {
				return fmt.Errorf("max-search: got %d, want %d", got, wantPat)
			}
			return nil
		},
	}
}

// MinSearch is the MIN dual of MaxSearch.
func MinSearch(p int, seed int64) Instance {
	const width = 16
	vals := workload.Vector(p, -1000, 1000, seed)
	local := make([][]int64, p)
	want := vals[0]
	for i, v := range vals {
		local[i] = []int64{v}
		if v < want {
			want = v
		}
	}
	wantPat := mask(want, width)
	return Instance{
		Name:  "min-search",
		Width: width,
		Source: `
			plw p1, 0(p0)
			rmin s1, p1
			sw s1, 0(s0)
			halt
		`,
		LocalMem: local,
		Check: func(m *machine.Machine) error {
			if got := m.ScalarMem(0); got != wantPat {
				return fmt.Errorf("min-search: got %d, want %d", got, wantPat)
			}
			return nil
		},
	}
}

// ResponderSum searches for all PEs whose value exceeds a threshold and
// visits each responder one at a time with the multiple response resolver
// (RFIRST + FANDN), accumulating their values — the classic ASC
// responder-iteration idiom. It is reduction-dense: every loop iteration
// issues RANY, RFIRST, and a masked ROR.
func ResponderSum(p int, seed int64) Instance {
	const width = 16
	vals := workload.Vector(p, -500, 500, seed)
	threshold := int64(0)
	local := make([][]int64, p)
	var wantSum, wantCount int64
	for i, v := range vals {
		local[i] = []int64{v}
		if v > threshold {
			wantSum += v
			wantCount++
		}
	}
	wantSumPat := mask(wantSum, width)
	return Instance{
		Name:  "responder-sum",
		Width: width,
		Source: `
			lw s1, 0(s0)      ; threshold
			plw p1, 0(p0)     ; values
			pcgt f1, p1, s1   ; search: responders have value > threshold
			rcount s6, f1
			sw s6, 2(s0)      ; responder count
			li s2, 0
		loop:
			rany s3, f1       ; any responders left?
			beqz s3, done
			rfirst f2, f1     ; pick the first responder
			ror s4, p1 ?f2    ; read its value through the logic unit
			add s2, s2, s4
			fandn f1, f1, f2  ; step to the next responder
			j loop
		done:
			sw s2, 1(s0)
			halt
		`,
		LocalMem:  local,
		ScalarMem: []int64{threshold},
		Check: func(m *machine.Machine) error {
			if got := m.ScalarMem(1); got != wantSumPat {
				return fmt.Errorf("responder-sum: sum %d, want %d", got, wantSumPat)
			}
			if got := m.ScalarMem(2); got != wantCount {
				return fmt.Errorf("responder-sum: count %d, want %d", got, wantCount)
			}
			return nil
		},
	}
}

// CountAndSum computes the responder count and the saturating sum of
// responders entirely in the reduction network (no iteration).
func CountAndSum(p int, seed int64) Instance {
	const width = 16
	vals := workload.Vector(p, -500, 500, seed)
	threshold := int64(100)
	local := make([][]int64, p)
	maskVec := make([]bool, p)
	var wantCount int64
	for i, v := range vals {
		local[i] = []int64{v}
		if v > threshold {
			maskVec[i] = true
			wantCount++
		}
	}
	wantSum := mask(network.ReduceSum(vals, maskVec, width), width)
	return Instance{
		Name:  "count-and-sum",
		Width: width,
		Source: `
			lw s1, 0(s0)
			plw p1, 0(p0)
			pcgt f1, p1, s1
			rcount s2, f1
			sw s2, 1(s0)
			rsum s3, p1 ?f1
			sw s3, 2(s0)
			halt
		`,
		LocalMem:  local,
		ScalarMem: []int64{threshold},
		Check: func(m *machine.Machine) error {
			if got := m.ScalarMem(1); got != wantCount {
				return fmt.Errorf("count-and-sum: count %d, want %d", got, wantCount)
			}
			if got := m.ScalarMem(2); got != wantSum {
				return fmt.Errorf("count-and-sum: sum %d, want %d", got, wantSum)
			}
			return nil
		},
	}
}

// MST computes the weight of a minimum spanning tree with the associative
// formulation of Prim's algorithm: one graph node per PE, the frontier
// minimum found with RMIN, the new tree node selected with RFIRST. Every
// iteration issues three reductions with tight dependences, making this the
// paper's worst-case workload for reduction hazards.
func MST(p int, seed int64) Instance {
	const width = 16
	const inf = 20000
	if p < 2 {
		panic("progs: MST needs at least 2 PEs")
	}
	adj := workload.Graph(p, 100, inf, seed)
	local := make([][]int64, p)
	for i := range local {
		local[i] = adj[i]
	}
	want := mask(workload.MSTWeight(adj), width)
	src := fmt.Sprintf(`
		pidx p1           ; node id
		plw p2, 0(p0)     ; dist[j] = w(j, node0)
		pceq f3, p1, s0   ; in-tree: node 0
		li s1, %d         ; edges to add = n-1
		li s2, 0          ; MST weight
	loop:
		fnot f4, f3       ; frontier = not in tree
		rmin s3, p2 ?f4   ; cheapest edge into the tree
		add s2, s2, s3
		pceq f5, p2, s3 ?f4
		rfirst f6, f5 ?f4 ; pick one frontier endpoint with that distance
		                  ; (the f4 mask hides stale f5 bits on in-tree PEs)
		for f3, f3, f6    ; add it to the tree
		ror s4, p1 ?f6    ; its node id
		pmov p5, s4
		plw p6, 0(p5)     ; w(j, new node)
		pclt f7, p6, p2
		pmov p2, p6 ?f7   ; dist[j] = min(dist[j], w(j, new))
		addi s1, s1, -1
		bnez s1, loop
		sw s2, 0(s0)
		halt
	`, p-1)
	return Instance{
		Name:     "mst-prim",
		Width:    width,
		Source:   src,
		LocalMem: local,
		Check: func(m *machine.Machine) error {
			if got := m.ScalarMem(0); got != want {
				return fmt.Errorf("mst: weight %d, want %d", got, want)
			}
			return nil
		},
	}
}

// StringSearch does associative pattern matching: PE i holds the text
// window starting at position i; each pattern character is broadcast and
// compared in all windows simultaneously, AND-ing the match flags.
func StringSearch(p, m int, seed int64) Instance {
	const width = 16
	text, pattern := workload.Text(p+m, m, seed)
	local := make([][]int64, p)
	for i := range local {
		w := make([]int64, m)
		for j := 0; j < m; j++ {
			w[j] = int64(text[i+j])
		}
		local[i] = w
	}
	smem := make([]int64, m)
	for j, c := range pattern {
		smem[j] = int64(c)
	}
	want := workload.CountMatches(text, pattern, p)
	src := fmt.Sprintf(`
		fset f1           ; all windows still match
		li s1, 0          ; j
		li s2, %d         ; m
	loop:
		lw s3, 0(s1)      ; pattern[j]
		pmov p3, s1       ; broadcast j as the window offset
		plw p2, 0(p3)     ; window[j] in every PE
		pceq f2, p2, s3
		fand f1, f1, f2
		inc s1
		blt s1, s2, loop
		rcount s4, f1     ; number of matching positions
		sw s4, %d(s0)
		halt
	`, m, m)
	return Instance{
		Name:      "string-search",
		Width:     width,
		Source:    src,
		LocalMem:  local,
		ScalarMem: smem,
		Check: func(mach *machine.Machine) error {
			if got := mach.ScalarMem(m); got != want {
				return fmt.Errorf("string-search: %d matches, want %d", got, want)
			}
			return nil
		},
	}
}

// ImageSum is the section-6.4 image-processing workload: each PE holds a
// block of pixels, accumulates it locally, and the saturating sum unit
// produces the global total (saturated to the data width) while the
// max/min unit finds the brightest block.
func ImageSum(p, block int, seed int64) Instance {
	const width = 16
	img := workload.Image(p, block, seed)
	local := make([][]int64, p)
	sums := make([]int64, p)
	allPEs := make([]bool, p)
	var wantMax int64
	for i := range img {
		local[i] = img[i]
		s := int64(0)
		for _, px := range img[i] {
			s += px
		}
		sums[i] = s
		allPEs[i] = true
		if s > wantMax {
			wantMax = s
		}
	}
	wantSum := mask(network.ReduceSum(sums, allPEs, width), width)
	src := fmt.Sprintf(`
		li s1, %d         ; pixels per block
		pli p1, 0         ; address
		pli p2, 0         ; accumulator
	loop:
		plw p3, 0(p1)
		padd p2, p2, p3
		paddi p1, p1, 1
		addi s1, s1, -1
		bnez s1, loop
		rsum s2, p2       ; global sum (saturating)
		sw s2, 0(s0)
		rmaxu s3, p2      ; brightest block
		sw s3, 1(s0)
		halt
	`, block)
	return Instance{
		Name:     "image-sum",
		Width:    width,
		Source:   src,
		LocalMem: local,
		Check: func(m *machine.Machine) error {
			if got := m.ScalarMem(0); got != wantSum {
				return fmt.Errorf("image-sum: sum %d, want %d", got, wantSum)
			}
			if got := m.ScalarMem(1); got != wantMax {
				return fmt.Errorf("image-sum: max block %d, want %d", got, wantMax)
			}
			return nil
		},
	}
}

// MTReduction is the multithreading showcase: threads-1 workers are spawned
// and every hardware thread (including the main one) runs a chain of
// dependent reductions. Single-threaded, each chain stalls b+r cycles per
// iteration; with all contexts busy the scheduler hides the stalls. Worker
// t stores its result at scalar memory address t.
func MTReduction(p, threads, iters int) Instance {
	const width = 16
	if threads < 1 {
		panic("progs: MTReduction needs threads >= 1")
	}
	// Each thread computes iters * (p-1): rmax over PE indices repeatedly.
	want := mask(int64(iters)*int64(p-1), width)
	src := ""
	for i := 1; i < threads; i++ {
		src += "\ttspawn s9, work\n"
	}
	src += fmt.Sprintf(`
	work:
		tid s10
		pidx p1
		li s2, %d
		li s3, 0
	loop:
		rmax s1, p1       ; reduction ...
		add s3, s3, s1    ; ... feeding a scalar: the b+r hazard
		addi s2, s2, -1
		bnez s2, loop
		sw s3, 0(s10)     ; result slot = thread id
		tid s11
		bnez s11, worker_exit
		li s12, %d        ; main thread: wait for workers
	waitloop:
		beqz s12, alldone
		trecv s13
		addi s12, s12, -1
		j waitloop
	alldone:
		halt
	worker_exit:
		tsend s0, s11     ; tell thread 0 we finished
		texit
	`, iters, threads-1)
	return Instance{
		Name:    fmt.Sprintf("mt-reduction-%dt", threads),
		Width:   width,
		Threads: threads,
		Source:  src,
		Check: func(m *machine.Machine) error {
			for t := 0; t < threads; t++ {
				if got := m.ScalarMem(t); got != want {
					return fmt.Errorf("mt-reduction: thread %d result %d, want %d", t, got, want)
				}
			}
			return nil
		},
	}
}

// Suite returns the single-threaded kernel set at a given PE count.
func Suite(p int, seed int64) []Instance {
	reports := p / 4
	if reports < 1 {
		reports = 1
	}
	return []Instance{
		MaxSearch(p, seed),
		MinSearch(p, seed+1),
		ResponderSum(p, seed+2),
		CountAndSum(p, seed+3),
		MST(p, seed+4),
		StringSearch(p, 4, seed+5),
		ImageSum(p, 16, seed+6),
		TrackCorrelation(p, reports, seed+7),
		AssociativeSort(p, seed+8),
		DbSelect(p, seed+9),
		Histogram(p, 8, seed+10),
		PriorityQueue(p, 4*p, seed+11),
	}
}
