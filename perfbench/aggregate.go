package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// value is one metric as the result line prints it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail is one metric in the metadata line: the printed value, the
// median and quartiles of its per-rep values, and, for a tail, the
// percentile it stands at and the samples behind it.
type detail struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Better     string  `json:"better"`
	Median     float64 `json:"median"`
	Q1         float64 `json:"q1"`
	Q3         float64 `json:"q3"`
	Reps       int     `json:"reps"`
	Percentile float64 `json:"percentile,omitempty"`
	Samples    int     `json:"samples,omitempty"`
}

// metaLine is the line before the result: what was run, where, and how
// every metric spread across repetitions.
type metaLine struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	SimSeeds    []int64           `json:"sim_seeds"`
	Trace       bool              `json:"trace"`
	Seconds     int               `json:"seconds"`
	Repetitions int               `json:"repetitions"`
	Host        host              `json:"host"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	ErrorRate   float64           `json:"error_rate"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     map[string]detail `json:"metrics"`
}

type result struct {
	meta metaLine
	line resultLine
}

// aggregate checks the reps' outputs against each other and the
// committed digests, and reduces them to the printed metrics.
func aggregate(def workloadDef, seed int64, seconds int, traced bool, runs []repRun, fx *fixtureSet) (*result, error) {
	var units, traces []*repReport
	var unitRSS []float64
	m := metaLine{Workload: def.name, Seed: seed, Trace: traced, Seconds: seconds, Host: hostInfo(), Metrics: map[string]detail{}}
	for i, r := range runs {
		m.Attempted++ // the rep itself: a crashed child fails it
		if r.err != nil {
			m.Failed++
			m.Failures = append(m.Failures, fmt.Sprintf("rep %d: %v", i, r.err))
			continue
		}
		m.Attempted += r.rep.Attempted
		m.Failed += len(r.rep.Failures)
		for _, f := range r.rep.Failures {
			m.Failures = append(m.Failures, fmt.Sprintf("rep %d: %s", i, f))
		}
		if r.traced {
			traces = append(traces, r.rep)
		} else {
			units = append(units, r.rep)
			unitRSS = append(unitRSS, r.rssMB)
		}
	}
	if len(units) == 0 || (traced && len(traces) == 0) {
		return nil, fmt.Errorf("no rep completed: %s", strings.Join(m.Failures, "; "))
	}
	for v := 0; v < variants; v++ {
		m.SimSeeds = append(m.SimSeeds, input{Seed: seed, Variant: v}.simSeed())
	}

	// Simulated statistics are checked for identity: every rep against
	// the committed digest of its input variant at this seed, or else
	// (daemon-mix) against core.Run's counters, or else against the
	// first rep of its variant.
	check := func(what, got, want string) {
		m.Attempted++
		if got != want {
			m.Failed++
			m.Failures = append(m.Failures, fmt.Sprintf("%s: counters digest %s, want %s", what, got, want))
		}
	}
	committed := readDigests()
	first := map[string]string{}
	want := func(name string, v int, got string) string {
		if d, ok := committed.committed(name, seed, v); ok {
			return d
		}
		if name == "daemon-mix" && fx != nil {
			return fx.RefDigests[v]
		}
		key := fmt.Sprint(name, "/", v)
		if _, ok := first[key]; !ok {
			first[key] = got
		}
		return first[key]
	}
	for i, u := range units {
		check(fmt.Sprintf("%s rep %d", def.name, i), u.Digest, want(def.name, u.Variant, u.Digest))
	}
	for i, t := range traces {
		check(fmt.Sprintf("%s traced rep %d", def.name, i), t.Digest, want(def.name, t.Variant, t.Digest))
		check(fmt.Sprintf("streamed shell-run probe %d", i), t.StreamDigest, want("shell-run", t.Variant, t.StreamDigest))
	}

	m.Repetitions = len(units)
	var metrics []metric
	if traced {
		m.Repetitions = len(traces)
		metrics = perLayer
		layerMetrics(m.Metrics, units, traces)
	} else {
		metrics = endToEnd
		endToEndMetrics(m.Metrics, units, unitRSS)
		okRate := float64(m.Attempted-m.Failed) / float64(m.Attempted)
		m.Metrics["ok_rate"] = detail{Value: okRate, Median: okRate, Q1: okRate, Q3: okRate, Reps: len(units)}
	}
	m.ErrorRate = float64(m.Failed) / float64(m.Attempted)
	if len(m.Failures) > 20 {
		m.Failures = append(m.Failures[:20], fmt.Sprintf("... %d more", len(m.Failures)-20))
	}

	line := resultLine{Attempted: m.Attempted, Failed: m.Failed, Metrics: map[string]value{}}
	line.Correct = m.Failed == 0
	for _, mt := range metrics {
		d, ok := m.Metrics[mt.Name]
		if !ok || math.IsNaN(d.Value) || math.IsInf(d.Value, 0) {
			// A probe that failed leaves its metric unmeasured; the
			// failure is already counted, so the result is not correct.
			line.Correct = false
			d = detail{}
		}
		d.Unit, d.Better = mt.Unit, mt.Better
		m.Metrics[mt.Name] = d
		line.Metrics[mt.Name] = value{Value: d.Value, Unit: mt.Unit}
	}
	return &result{meta: m, line: line}, nil
}

// perRep summarizes one metric's per-rep values, printing value.
func perRep(v float64, reps []float64) detail {
	q1, q3 := quartiles(reps)
	return detail{Value: v, Median: median(reps), Q1: q1, Q3: q3, Reps: len(reps)}
}

func endToEndMetrics(out map[string]detail, units []*repReport, rss []float64) {
	var setups, walls, mrefs, jps, p50s, tails []float64
	for _, u := range units {
		setups = append(setups, u.SetupS...)
		walls = append(walls, u.WallS)
		mrefs = append(mrefs, float64(u.Refs)/1e6/u.WallS)
		jps = append(jps, float64(len(u.JobMS))/u.WallS)
		p50s = append(p50s, median(u.JobMS))
		t, _, _ := tail(u.JobMS)
		tails = append(tails, t)
	}
	out["setup_s"] = perRep(median(setups), setups)
	out["wall_s"] = perRep(median(walls), walls)
	out["host_mrefs_per_s"] = perRep(median(mrefs), mrefs)
	out["jobs_per_s"] = perRep(median(jps), jps)
	out["job_p50_ms"] = perRep(median(p50s), p50s)
	d := perRep(median(tails), tails)
	_, d.Percentile, d.Samples = tail(units[0].JobMS)
	out["job_tail_ms"] = d
	out["peak_rss_mb"] = perRep(median(rss), rss)
}

func layerMetrics(out map[string]detail, units, traces []*repReport) {
	per := map[string][]float64{}
	pooled := map[string][]float64{}
	var walls []float64
	for _, t := range traces {
		for k, v := range t.Layers {
			per[k] = append(per[k], v)
		}
		for k, v := range t.Samples {
			pooled[k] = append(pooled[k], v...)
		}
		walls = append(walls, t.WallS)
	}
	for k, vs := range per {
		out[k] = perRep(median(vs), vs)
	}
	for _, name := range []string{"server.submit", "server.queue_wait"} {
		xs := pooled[name+"_ms"]
		out[name+"_p50_ms"] = detail{Value: median(xs), Median: median(xs), Reps: len(traces), Samples: len(xs)}
		t, pct, n := tail(xs)
		out[name+"_tail_ms"] = detail{Value: t, Median: t, Reps: len(traces), Percentile: pct, Samples: n}
	}
	var unitWalls []float64
	for _, u := range units {
		unitWalls = append(unitWalls, u.WallS)
	}
	out["tracing.traced_wall_s"] = perRep(median(walls), walls)
	out["tracing.untraced_wall_s"] = perRep(median(unitWalls), unitWalls)
	over := median(walls) - median(unitWalls)
	out["tracing.overhead_s"] = detail{Value: over, Median: over, Reps: len(traces)}
}

// host is the run's provenance: where it ran and on which code.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_digest"`
}

func hostInfo() host {
	return host{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Source:     sourceDigest(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD from the working directory's .git, without
// running git; a checkout without one reports "unknown" and is
// identified by its source digest instead.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(l, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under the
// working directory (hidden directories skipped), naming the code a
// result was measured on even outside a git checkout.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
