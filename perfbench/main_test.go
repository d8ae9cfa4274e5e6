package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smallSizes runs every workload in a few seconds.
var smallSizes = sizes{
	mtIters: 512, mtPasses: 1,
	widePEs: 64, widePasses: 1,
	serveRounds:      2,
	batchesPerClient: 4,
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsSmall runs every workload untraced and traced at small
// sizes. Each run must check out, print every metric BENCHMARK.json names
// with its unit, and, when traced, write spans whose self times are
// non-negative and add up with their children to the parent's duration.
func TestWorkloadsSmall(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, specs[i].name)
		}
	}
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			res, err := run(s, 7, 2, traced, smallSizes, dir, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d", s.name, traced, res.Correct, res.Attempted)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", s.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", s.name, traced, m.Name, got, m.Unit)
				}
			}
			if traced {
				checkSpans(t, filepath.Join(dir, s.name+"-seed7.jsonl"))
			}
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	byID := map[int64]span{}
	kids := map[int64]time.Duration{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %+v has no parent", s)
		}
		if s.Start < p.Start || s.End > p.End || s.Trace != p.Trace {
			t.Fatalf("span %+v is not inside its parent %+v", s, p)
		}
		kids[s.Parent] += s.dur()
	}
	self, covered := selfTimes(spans)
	for _, s := range spans {
		if self[s.ID] < 0 {
			t.Errorf("span %+v has negative self time %v", s, self[s.ID])
		}
		// Children never overlap, so they cover exactly their summed time.
		if self[s.ID]+kids[s.ID] != s.dur() || covered[s.ID] != kids[s.ID] {
			t.Errorf("span %+v: self %v + children %v != duration %v", s, self[s.ID], kids[s.ID], s.dur())
		}
	}
}
