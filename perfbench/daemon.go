package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oscachesim/internal/campaign"
	"oscachesim/internal/cluster"
	"oscachesim/internal/core"
	"oscachesim/internal/experiment"
	"oscachesim/internal/server"
	"oscachesim/internal/store"
	"oscachesim/internal/workload"
)

const (
	// daemonRequests is daemon-mix's request count per rep; half of
	// them repeat an earlier key.
	daemonRequests = 256
	// daemonSeeds is how many simulation seeds the request universe
	// spans: every paper workload under every system at each.
	daemonSeeds = 4
	// daemonProbeRequests sizes the server and cluster probe in the
	// traced runs of the other workloads.
	daemonProbeRequests = 16
	// daemonScale keeps each request small, so the daemon's own work
	// is a large part of a job.
	daemonScale = 1
	// daemonSetups is how many times a rep sets the cluster up (all but
	// the last are torn down again), so setup_s is a median.
	daemonSetups = 5
	// jobBudget bounds one job, 429 retries included.
	jobBudget = 60 * time.Second
)

// width is the client, connection, daemon worker and campaign runner
// worker count: the host's processors, at most two.
func width() int { return min(2, runtime.NumCPU()) }

// daemonGrid is the k-th grid of small runs daemon-mix draws its
// requests from: every paper workload under every system, at the k-th
// seed derived from the benchmark seed. Grids 0 to daemonSeeds-1 form
// the request universe; later ones fill the fixture store log.
func daemonGrid(in input, k int) campaign.Grid {
	return campaign.Grid{Workloads: workload.Names(), Systems: core.Systems(), Scale: daemonScale, Seed: in.simSeed() + int64(k)*7919}
}

// planDaemon plans the request universe and returns its cells.
func planDaemon(in input, tr *tracer, parent int) ([]campaign.Cell, error) {
	var cells []campaign.Cell
	for k := 0; k < daemonSeeds; k++ {
		plan, err := setupPlan(daemonGrid(in, k), tr, parent)
		if err != nil {
			return nil, err
		}
		cells = append(cells, plan.Cells...)
	}
	return cells, nil
}

// daemonSequence draws n requests from the planned cells, seeded: the
// first half of the draws are distinct cells, the rest repeat an
// earlier request, interleaved at random. Exactly n/2 requests are
// repeats, and every repeat follows its first occurrence.
func daemonSequence(in input, cells []campaign.Cell, n int) []campaign.Cell {
	rng := rand.New(rand.NewSource(in.simSeed()))
	order := rng.Perm(len(cells))
	uniques := min(n-n/2, len(cells))
	seq := make([]campaign.Cell, 0, n)
	used := 0
	for len(seq) < n {
		remU, remR := uniques-used, n-uniques-(len(seq)-used)
		if used == 0 || (remU > 0 && rng.Intn(remU+remR) < remU) {
			seq = append(seq, cells[order[used]])
			used++
			continue
		}
		seq = append(seq, seq[rng.Intn(len(seq))])
	}
	return seq
}

// requestBody renders a cell as a POST /v1/runs body.
func requestBody(c campaign.Cell) []byte {
	b, _ := json.Marshal(map[string]any{ // strings and numbers always encode
		"workload": string(c.Cfg.Workload), "system": c.Cfg.System.String(),
		"scale": c.Cfg.Scale, "seed": c.Cfg.Seed,
	})
	return b
}

// node is one in-process ossimd: the server, its HTTP listener and its
// durable store.
type node struct {
	srv    *server.Server
	http   *http.Server
	store  *store.Store
	url    string
	served chan error
}

func startNode(opts server.Options, wrap func(http.Handler) http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{srv: server.New(opts), store: opts.Store, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	h := n.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	n.http = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { n.served <- n.http.Serve(ln) }()
	return n, nil
}

// stop closes the listener and connections, drains the server, waits
// for its goroutines and closes the store.
func (n *node) stop(ctx context.Context) error {
	err := n.http.Shutdown(ctx)
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := n.srv.Drain(ctx); derr != nil && err == nil {
		err = derr
	}
	if cerr := n.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// daemon is the two-node cluster: a coordinator and one worker that
// joined it through the cluster agent.
type daemon struct {
	cells         []campaign.Cell
	coord, worker *node
	stopAgent     context.CancelFunc
	agentDone     chan struct{}
	transports    []*http.Transport
}

// clusterHooks are the traced run's instruments: the worker's runner
// (whose compute hook records generation and simulation spans) and a
// wrapper for the coordinator's forwarding transport.
type clusterHooks struct {
	workerRunner *experiment.Runner
	forward      func(http.RoundTripper) http.RoundTripper
}

func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: width(), MaxIdleConnsPerHost: width(), IdleConnTimeout: time.Minute}
}

// startDaemon is daemon-mix's set-up: plan the request universe, open
// both stores (replaying the pre-written log), start both nodes on
// loopback listeners, and wait until the worker's agent has registered
// with the coordinator.
func startDaemon(ctx context.Context, in input, coordDir, workerDir string, tr *tracer, parent int, hooks clusterHooks) (*daemon, error) {
	d := &daemon{}
	var err error
	if d.cells, err = planDaemon(in, tr, parent); err != nil {
		return nil, err
	}
	openStore := func(dir string) (*store.Store, error) {
		id := tr.begin(parent, "store", "Open")
		defer tr.end(id)
		return store.Open(dir, nil)
	}
	wst, err := openStore(workerDir)
	if err != nil {
		return nil, err
	}
	cst, err := openStore(coordDir)
	if err != nil {
		wst.Close()
		return nil, err
	}

	id := tr.begin(parent, "server", "start nodes")
	d.worker, err = startNode(server.Options{
		Workers: width(), Store: wst, Runner: hooks.workerRunner,
		Cluster: &server.ClusterOptions{NodeID: "w1"},
	}, nil)
	if err != nil {
		tr.end(id)
		wst.Close()
		cst.Close()
		return nil, err
	}
	fwd := newTransport()
	d.transports = append(d.transports, fwd)
	var rt http.RoundTripper = fwd
	if hooks.forward != nil {
		rt = hooks.forward(fwd)
	}
	registered := make(chan struct{})
	var once sync.Once
	d.coord, err = startNode(server.Options{
		Workers: width(), Store: cst,
		Cluster: &server.ClusterOptions{NodeID: "coord", Coordinator: true, HTTP: &http.Client{Transport: rt}},
	}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(w, r)
			if r.Method == http.MethodPost && r.URL.Path == cluster.RegisterPath {
				once.Do(func() { close(registered) })
			}
		})
	})
	tr.end(id)
	if err != nil {
		_ = d.worker.stop(ctx) // the start failure is the error worth reporting
		cst.Close()
		return nil, err
	}

	id = tr.begin(parent, "cluster", "Agent register")
	agentTransport := newTransport()
	d.transports = append(d.transports, agentTransport)
	actx, cancel := context.WithCancel(context.Background())
	d.stopAgent, d.agentDone = cancel, make(chan struct{})
	agent := &cluster.Agent{
		Coordinator: d.coord.url, NodeID: "w1", Advertise: d.worker.url,
		Stats: d.worker.srv.ClusterStats, HTTP: &http.Client{Transport: agentTransport},
	}
	go func() {
		defer close(d.agentDone)
		agent.Run(actx)
	}()
	t := time.NewTimer(30 * time.Second)
	defer t.Stop()
	select {
	case <-registered:
		tr.end(id)
		return d, nil
	case <-t.C:
		err = errors.New("worker did not register within 30s")
	case <-ctx.Done():
		err = context.Cause(ctx)
	}
	tr.end(id)
	_ = d.stop() // the registration failure is the error worth reporting
	return nil, err
}

// stop tears the cluster down and waits for every goroutine it started.
func (d *daemon) stop() error {
	d.stopAgent()
	<-d.agentDone
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.coord.stop(ctx)
	if werr := d.worker.stop(ctx); werr != nil && err == nil {
		err = werr
	}
	for _, t := range d.transports {
		t.CloseIdleConnections()
	}
	return err
}

// jobResult is one request of the sequence as the client saw it.
type jobResult struct {
	Latency, Submit time.Duration
	Deduped         bool
	Key             string
	QueueWait       float64
	Result          *server.RunResult
	Err             error
}

// spanIndex links the spans of one canonical key across the client,
// the coordinator's forward and the worker's compute.
type spanIndex struct {
	mu      sync.Mutex
	job     map[string]int
	forward map[string]int
	parts   map[string]runParts
}

func (s *spanIndex) parentOf(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.forward[key]; ok {
		return id
	}
	return s.job[key]
}

// drive sends the sequence through width() closed-loop clients: each
// submits a request, follows its /v1/runs/{id}/stream until the result
// frame arrives, and only then takes the next request.
func drive(ctx context.Context, base string, seq []campaign.Cell, tr *tracer, root int, idx *spanIndex) []jobResult {
	transport := newTransport()
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	results := make([]jobResult, len(seq))
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < width(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = oneJob(ctx, client, base, seq[i], tr, root, idx)
			}
		}()
	}
	for i := range seq {
		work <- i
	}
	close(work)
	wg.Wait()
	return results
}

// oneJob submits one run and waits for its result frame.
func oneJob(ctx context.Context, client *http.Client, base string, cell campaign.Cell, tr *tracer, root int, idx *spanIndex) jobResult {
	var res jobResult
	start := time.Now()
	deadline := start.Add(jobBudget)
	jobSpan := tr.begin(root, "server", "job")
	defer tr.end(jobSpan)
	if idx != nil {
		idx.mu.Lock()
		if _, ok := idx.job[cell.Key]; !ok {
			idx.job[cell.Key] = jobSpan
		}
		idx.mu.Unlock()
	}

	body := requestBody(cell)
	var view server.JobView
	sub := tr.begin(jobSpan, "server", "POST /v1/runs")
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/runs", bytes.NewReader(body))
		if err != nil {
			tr.end(sub)
			res.Err = err
			return res
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			tr.end(sub)
			res.Err = err
			return res
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusTooManyRequests {
			wait := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			if time.Now().Add(wait).After(deadline) {
				err = fmt.Errorf("queue stayed full for %s", jobBudget)
			} else {
				time.Sleep(wait)
				continue
			}
		}
		if err == nil && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		if err == nil {
			err = json.Unmarshal(data, &view)
		}
		if err != nil {
			tr.end(sub)
			res.Err = err
			return res
		}
		break
	}
	tr.end(sub)
	res.Submit = time.Since(start)
	res.Deduped = view.Deduped
	res.Key = view.Key

	sctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, base+"/v1/runs/"+view.ID+"/stream", nil)
	if err != nil {
		res.Err = err
		return res
	}
	resp, err := client.Do(req)
	if err != nil {
		res.Err = err
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		res.Err = fmt.Errorf("stream: HTTP %d", resp.StatusCode)
		return res
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var fr server.StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			res.Err = fmt.Errorf("stream frame: %v", err)
			return res
		}
		if fr.Type != "result" {
			continue
		}
		res.Latency = time.Since(start)
		switch {
		case fr.Job == nil:
			res.Err = errors.New("result frame without a job")
		case fr.Job.State != server.JobDone:
			res.Err = fmt.Errorf("job %s %s: %s", fr.Job.ID, fr.Job.State, fr.Job.Error)
		case fr.Job.Result == nil:
			res.Err = fmt.Errorf("job %s done without a result", fr.Job.ID)
		default:
			res.Result = fr.Job.Result
			res.QueueWait = fr.Job.QueueWaitSeconds
		}
		return res
	}
	res.Err = fmt.Errorf("stream ended without a result frame: %v", sc.Err())
	return res
}

// fetchJSON GETs a URL and decodes its JSON body.
func fetchJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// executions reads a node's own simulation count from /v1/cluster.
func executions(n *node) (uint64, error) {
	var view server.ClusterView
	err := fetchJSON(n.url+"/v1/cluster", &view)
	return view.Self.Executions, err
}

// copyLog gives a fresh store directory the fixture log.
func copyLog(fixtureLog, dir string) error {
	data, err := os.ReadFile(fixtureLog)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, filepath.Base(fixtureLog)), data, 0o644)
}

// daemonRun is one daemon-mix rep (or, with n = daemonProbeRequests,
// the server and cluster probe): set-up, the request sequence, then the
// output checks. A non-nil tracer turns on the traced instruments.
func daemonRun(ctx context.Context, in input, fixtures string, n, setups int, tr *tracer) (*repReport, error) {
	fx, err := loadFixtures(fixtures)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "perfbench-daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	coordDir, workerDir := filepath.Join(tmp, "coord"), filepath.Join(tmp, "worker")
	for _, dir := range []string{coordDir, workerDir} {
		if err := copyLog(fx.Log, dir); err != nil {
			return nil, err
		}
	}

	rep := &repReport{Variant: in.Variant}
	var (
		idx      *spanIndex
		hooks    clusterHooks
		computed atomic.Uint64
	)
	if tr != nil {
		idx = &spanIndex{job: map[string]int{}, forward: map[string]int{}, parts: map[string]runParts{}}
		hooks.workerRunner = experiment.NewRunner(experiment.Config{Compute: func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
			key := cfg.CanonicalKey()
			o, parts, err := decomposedRun(ctx, cfg, tr, idx.parentOf(key), nil)
			if err == nil {
				computed.Add(1)
				idx.mu.Lock()
				idx.parts[key] = parts
				idx.mu.Unlock()
			}
			return o, err
		}})
		hooks.forward = func(base http.RoundTripper) http.RoundTripper {
			return &forwardSpans{base: base, tr: tr, idx: idx}
		}
	}
	var d *daemon
	for i := 0; i < setups; i++ {
		setup := tr.begin(0, benchLayer, "setup")
		t0 := time.Now()
		d, err = startDaemon(ctx, in, coordDir, workerDir, tr, setup, hooks)
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
		tr.end(setup)
		if err != nil {
			return nil, err
		}
		if i < setups-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	if tr != nil {
		rep.setLayer("campaign.plan_ms", ms(tr.sum("campaign", "NewPlan"))/float64(setups))
	}
	seq := daemonSequence(in, d.cells, n)

	root := tr.begin(0, benchLayer, "daemon-mix")
	t0 := time.Now()
	results := drive(ctx, d.coord.url, seq, tr, root, idx)
	wall := time.Since(t0)
	tr.end(root)

	checkDaemon(rep, d, seq, results, fx, computed.Load())
	var m struct {
		Forwarded float64 `json:"cluster_forwarded"`
		Requeued  float64 `json:"cluster_requeued"`
	}
	if err := fetchJSON(d.coord.url+"/v1/metrics", &m); err != nil {
		rep.fail("metrics: %v", err)
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	rep.WallS = wall.Seconds()
	if tr != nil {
		daemonLayers(rep, idx, seq, results, wall, m.Forwarded, m.Requeued)
	}
	return rep, nil
}

// checkDaemon runs daemon-mix's output checks: every job done with the
// counters core.Run gives for its configuration, one deduplicated
// submit per repeat, and one simulation per unique key cluster-wide.
func checkDaemon(rep *repReport, d *daemon, seq []campaign.Cell, results []jobResult, fx *fixtureSet, traced uint64) {
	unique := map[string]bool{}
	deduped := 0
	got := map[string]summary{}
	for i, r := range results {
		rep.Attempted++
		cell := seq[i]
		if r.Err != nil {
			rep.fail("job %d (%s): %v", i, cell.Coords, r.Err)
			continue
		}
		rep.JobMS = append(rep.JobMS, ms(r.Latency))
		if r.Deduped {
			deduped++
		}
		if r.Key != cell.Key {
			rep.fail("job %d: server key %.12s differs from the planned key %.12s", i, r.Key, cell.Key)
			continue
		}
		s := summary{
			Refs: r.Result.Refs, Cycles: r.Result.Cycles, OSCycles: r.Result.OSCycles,
			DReads: r.Result.DReads, DReadMisses: r.Result.DReadMisses, OSReadMisses: r.Result.OSReadMisses,
			BusTransactions: r.Result.BusTransactions, BusBytes: r.Result.BusBytes,
		}
		if want, ok := fx.Refs[cell.Key]; !ok || want != s {
			rep.fail("job %d (%v): counters %+v differ from core.Run's %+v", i, cell.Coords, s, want)
			continue
		}
		if !unique[cell.Key] {
			unique[cell.Key] = true
			rep.Refs += s.Refs
		}
		got[coordLabel(cell)] = s
	}
	repeats := len(seq) - distinctKeys(seq)
	rep.Attempted++
	if deduped != repeats {
		rep.fail("dedup: %d deduplicated submits, want the sequence's %d repeats", deduped, repeats)
	}
	rep.Attempted++
	ce, cerr := executions(d.coord)
	we, werr := executions(d.worker)
	switch {
	case cerr != nil || werr != nil:
		rep.fail("executions audit: %v %v", cerr, werr)
	case ce+we+traced != uint64(distinctKeys(seq)):
		rep.fail("exactly-once: %d executions cluster-wide, want %d unique keys", ce+we+traced, distinctKeys(seq))
	}
	rep.Digest = digest(got)
}

func distinctKeys(seq []campaign.Cell) int {
	seen := map[string]bool{}
	for _, c := range seq {
		seen[c.Key] = true
	}
	return len(seen)
}

func coordLabel(c campaign.Cell) string {
	return c.Coords[campaign.AxisWorkload] + "/" + c.Coords[campaign.AxisSystem] + "/" + strconv.FormatInt(c.Cfg.Seed, 10)
}

// daemonLayers derives the server, cluster, generation and simulation
// metrics of a traced sequence.
func daemonLayers(rep *repReport, idx *spanIndex, seq []campaign.Cell, results []jobResult, wall time.Duration, forwarded, requeued float64) {
	var submits, waits, overheads []float64
	var total runParts
	var cycles, bus uint64
	deduped := 0
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		submits = append(submits, ms(r.Submit))
		if r.Deduped {
			deduped++
			continue
		}
		waits = append(waits, r.QueueWait*1e3)
		idx.mu.Lock()
		parts := idx.parts[r.Key]
		idx.mu.Unlock()
		overheads = append(overheads, ms(r.Latency)-r.QueueWait*1e3-ms(parts.Build)-ms(parts.Sim))
		total.Build += parts.Build
		total.Sim += parts.Sim
		total.AllocB += parts.AllocB
		cycles += r.Result.Cycles
		bus += r.Result.BusTransactions
	}
	rep.Samples = map[string][]float64{"server.submit_ms": submits, "server.queue_wait_ms": waits}
	rep.setLayer("server.overhead_ms", median(overheads))
	rep.setLayer("server.dedup_ratio", float64(deduped)/float64(len(seq)))
	rep.setLayer("cluster.forwarded", forwarded)
	rep.setLayer("cluster.requeued", requeued)
	setUnitLayers(rep, wall, total, rep.Refs, cycles, bus)
}

// forwardSpans records a cluster span around each coordinator→worker
// compute forward, closed when the worker's response body is consumed.
type forwardSpans struct {
	base http.RoundTripper
	tr   *tracer
	idx  *spanIndex
}

func (f *forwardSpans) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != cluster.ComputePath || req.Body == nil {
		return f.base.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	var creq struct {
		Key string `json:"key"`
	}
	_ = json.Unmarshal(body, &creq) // an undecodable body only loses the span's parent
	req.Body = io.NopCloser(bytes.NewReader(body))
	f.idx.mu.Lock()
	id := f.tr.begin(f.idx.job[creq.Key], "cluster", "forward")
	f.idx.forward[creq.Key] = id
	f.idx.mu.Unlock()
	resp, err := f.base.RoundTrip(req)
	if err != nil {
		f.tr.end(id)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { f.tr.end(id) }}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}

// daemonUnit is one untraced daemon-mix rep.
func daemonUnit(ctx context.Context, in input, fixtures string) (*repReport, error) {
	return daemonRun(ctx, in, fixtures, daemonRequests, daemonSetups, nil)
}

// daemonTracedRep is daemon-mix's traced rep: the sequence with spans,
// then the probes of the layers a daemon job does not pass through.
func daemonTracedRep(ctx context.Context, in input, fixtures string) (*repReport, error) {
	tr := newTracer()
	rep, err := daemonRun(ctx, in, fixtures, daemonRequests, 1, tr)
	if err != nil {
		return nil, err
	}
	probes(ctx, rep, tr, in, fixtures, "daemon-mix")
	return rep, nil
}
