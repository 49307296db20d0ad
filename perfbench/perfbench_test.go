package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"oscachesim/internal/campaign"
)

func planCells(t *testing.T, seed int64) []campaign.Cell {
	t.Helper()
	cells, err := planDaemon(input{Seed: seed}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func TestDaemonSequenceDeterministic(t *testing.T) {
	keys := func(seed int64) []string {
		var out []string
		for _, c := range daemonSequence(input{Seed: seed}, planCells(t, seed), daemonRequests) {
			out = append(out, c.Key)
		}
		return out
	}
	a, b := keys(7), keys(7)
	if len(a) != daemonRequests {
		t.Fatalf("sequence has %d requests, want %d", len(a), daemonRequests)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 gave two sequences (differ at request %d)", i)
		}
	}
	c := keys(8)
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("seeds 7 and 8 gave the same sequence")
	}
}

func TestDaemonSequenceRepeatShare(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42} {
		for _, n := range []int{daemonProbeRequests, daemonRequests} {
			seq := daemonSequence(input{Seed: seed}, planCells(t, seed), n)
			seen := map[string]bool{}
			repeats := 0
			for _, c := range seq {
				if seen[c.Key] {
					repeats++
				}
				seen[c.Key] = true
			}
			if repeats != n/2 {
				t.Errorf("seed %d, n %d: %d repeats, want exactly half (%d)", seed, n, repeats, n/2)
			}
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the catalog must match.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	type entry struct{ unit, better string }
	check := func(kind string, cat []metric, declared map[string]entry) {
		if len(cat) != len(declared) {
			t.Errorf("%s: the runner has %d metrics, BENCHMARK.json declares %d", kind, len(cat), len(declared))
		}
		for _, m := range cat {
			d, ok := declared[m.Name]
			switch {
			case !ok:
				t.Errorf("%s metric %q is not in BENCHMARK.json", kind, m.Name)
			case d.unit != m.Unit || d.better != m.Better:
				t.Errorf("%s metric %q: runner says %s/%s, BENCHMARK.json %s/%s", kind, m.Name, m.Unit, m.Better, d.unit, d.better)
			}
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, nameRE)
			}
		}
	}
	e2e := map[string]entry{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = entry{m.Unit, m.Better}
	}
	layer := map[string]entry{}
	for _, m := range bj.PerLayer {
		layer[m.Name] = entry{m.Unit, m.Better}
	}
	check("end-to-end", endToEnd, e2e)
	check("per-layer", perLayer, layer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the runner has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the runner", w.Name)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q does not match %s", w.Name, nameRE)
		}
	}
}

// TestPrintedMetricsAreDeclared aggregates synthetic reps and checks
// that the result line carries exactly the declared metrics.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	rep := func() *repReport {
		r := &repReport{SetupS: []float64{0.001}, WallS: 1, Refs: 1e6, JobMS: []float64{1000}, Digest: "d", StreamDigest: "d", Attempted: 1,
			Layers: map[string]float64{}, Samples: map[string][]float64{"server.submit_ms": {1, 2}, "server.queue_wait_ms": {1}}}
		for _, m := range perLayer {
			r.Layers[m.Name] = 1
		}
		return r
	}
	def, _ := findWorkload("shell-run")
	for _, traced := range []bool{false, true} {
		runs := []repRun{{rep: rep(), rssMB: 10}, {rep: rep(), rssMB: 11}}
		if traced {
			runs = append(runs, repRun{rep: rep(), traced: true})
		}
		res, err := aggregate(def, 12345, 1, traced, runs, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(res.line.Metrics) != len(want) {
			t.Errorf("traced=%v: printed %d metrics, want %d", traced, len(res.line.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := res.line.Metrics[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("traced=%v: metric %q missing or with unit %q", traced, m.Name, v.Unit)
			}
		}
		if !res.line.Correct || res.line.Failed != 0 {
			t.Errorf("traced=%v: agreeing reps judged incorrect: %v", traced, res.meta.Failures)
		}
	}
}

func TestDigestMismatchFails(t *testing.T) {
	def, _ := findWorkload("shell-run")
	a := &repReport{WallS: 1, JobMS: []float64{1}, Digest: "a", Attempted: 1}
	b := &repReport{WallS: 1, JobMS: []float64{1}, Digest: "b", Attempted: 1}
	res, err := aggregate(def, 12345, 1, false, []repRun{{rep: a}, {rep: b}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.line.Correct || res.line.Failed != 1 {
		t.Errorf("a digest mismatch gave correct=%v failed=%d", res.line.Correct, res.line.Failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	v, pct, n := tail(xs)
	if v != 90 || pct != 90 || n != 100 {
		t.Errorf("tail = %v at p%v of %d, want 90 at p90 of 100", v, pct, n)
	}
	if v, pct, _ := tail([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Errorf("tail of 3 samples = %v at p%v, want the maximum at p100", v, pct)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	tr := &tracer{}
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	tr.spans = []span{
		{ID: 1, Layer: "campaign", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Layer: "workload", Start: at(10), End: at(50)},
		{ID: 3, Parent: 1, Layer: "sim", Start: at(30), End: at(70)}, // overlaps span 2
		{ID: 4, Parent: 3, Layer: "workload", Start: at(60), End: at(80)},
	}
	self := tr.selfTimes()
	want := map[string]float64{"campaign": 0.040, "workload": 0.040 + 0.020, "sim": 0.030}
	for l, w := range want {
		if math.Abs(self[l]-w) > 1e-9 {
			t.Errorf("%s self time = %v, want %v", l, self[l], w)
		}
	}
}

func TestVariantsDrawDistinctInputs(t *testing.T) {
	seen := map[int64]bool{}
	for v := 0; v < variants; v++ {
		in := input{Seed: 1, Variant: v}
		s := in.simSeed()
		if s != in.simSeed() {
			t.Fatalf("variant %d: simulator seed is not deterministic", v)
		}
		if seen[s] {
			t.Errorf("variant %d repeats another variant's simulator seed %d", v, s)
		}
		seen[s] = true
	}
}

// TestTracedDaemonProbe drives the traced daemon path end to end — two
// clients, the coordinator's forward, the worker's compute hook and
// the tracer all running at once — and requires every check to pass.
func TestTracedDaemonProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a few hundred small runs")
	}
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	ctx := context.Background()
	if _, err := prepareFixtures(ctx, 3, dir); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	rep, err := daemonRun(ctx, input{Seed: 3, Variant: 1}, dir, daemonProbeRequests, 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) > 0 {
		t.Fatalf("failures: %v", rep.Failures)
	}
	for _, name := range []string{"server.overhead_ms", "server.dedup_ratio", "cluster.forwarded", "workload.build_s", "sim.run_s"} {
		if _, ok := rep.Layers[name]; !ok {
			t.Errorf("traced daemon rep lacks %s", name)
		}
	}
	if got := rep.Layers["server.dedup_ratio"]; got != 0.5 {
		t.Errorf("dedup ratio %v, want 0.5", got)
	}
	if self := tr.selfTimes(); self["server"] <= 0 || self["cluster"] <= 0 {
		t.Errorf("server and cluster self times %v, %v; want both positive", self["server"], self["cluster"])
	}
}
