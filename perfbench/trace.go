package main

import (
	"sort"
	"sync"
	"time"
)

// The program's layers, as the spans name them. "bench" marks the
// benchmark's own root spans; it is not a layer of the program and has
// no self-time metric.
var layers = []string{"workload", "trace", "sim", "campaign", "experiment", "report", "server", "cluster", "store"}

const benchLayer = "bench"

// span is one recorded interval: a call into a layer's public function,
// made from the benchmark's own code. Parent is the id of the span that
// caused it (0 for a root).
type span struct {
	ID, Parent int
	Layer      string
	Name       string
	Start, End time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths pass nil and pay one branch.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// sum totals the durations of the spans with this layer and name.
func (t *tracer) sum(layer, name string) time.Duration {
	var d time.Duration
	for _, s := range t.snapshot() {
		if s.Layer == layer && s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// selfTimes returns each layer's self time in seconds: the duration of
// its spans minus the part of each span's interval that its child
// spans cover. Children that run concurrently (two campaign workers,
// two daemon clients) are merged, so covered time is never counted
// twice.
func (t *tracer) selfTimes() map[string]float64 {
	spans := t.snapshot()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range spans {
		if s.Layer == benchLayer {
			continue
		}
		self := (s.End - s.Start) - covered(s, children[s.ID])
		out[s.Layer] += self.Seconds()
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}
