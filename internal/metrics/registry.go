// Registry: the ops-plane metric surface. Every subsystem registers its
// counters under a stable dotted name (DESIGN.md §13 tables the scheme),
// and every consumer — the /metrics endpoint, the harness tables, marpctl
// digest -json — reads through the same names. Two instrument styles:
//
//   - typed instruments (Counter, Gauge, Histogram): atomic, safe to
//     update from any goroutine, for hot paths that observe as they go
//     (e.g. WAL fsync latency);
//   - read-through collectors (CounterFunc & friends): a closure sampled
//     at Gather time, for subsystems that already keep their own counters
//     (wal.Stats, disk.Stats, reliable.Stats, fabric NetStats). The
//     registry is a read path over those sources, never a second write
//     path — which is why wiring it cannot perturb the DES schedule.
//
// Collectors may read engine-owned state, so Gather must run on the
// owning execution context (transport.Server.GatherMetrics wraps it in
// the engine's exec). Typed instruments have no such requirement.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricKind classifies a registered family.
type MetricKind int

const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// BucketCount is one cumulative histogram bucket: the number of
// observations ≤ Le.
type BucketCount struct {
	Le float64
	N  uint64
}

// Point is one gathered value. Counters and gauges fill Value; histograms
// fill Buckets (cumulative), Count, and Value (the sum of observations).
type Point struct {
	Name       string // dotted family name, e.g. "marp.wal.syncs"
	Kind       MetricKind
	LabelKey   string // optional, e.g. "shard"
	LabelValue string
	Value      float64
	Count      uint64
	Buckets    []BucketCount
}

// family is one registered name: its metadata plus the closure that
// appends its current points.
type family struct {
	name, help string
	kind       MetricKind
	collect    func([]Point) []Point
}

// Registry holds the registered families of one process (one per cluster;
// core.NewCluster builds it and registers every subsystem).
type Registry struct {
	mu       sync.RWMutex
	byName   map[string]*family
	families []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// validName enforces the naming scheme: lowercase dotted words,
// [a-z0-9_] between the dots, at least one dot ("subsystem.metric").
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("metrics: empty name")
	}
	if !strings.Contains(name, ".") {
		return fmt.Errorf("metrics: name %q has no subsystem prefix (want subsystem.metric)", name)
	}
	for _, part := range strings.Split(name, ".") {
		if part == "" {
			return fmt.Errorf("metrics: name %q has an empty dotted segment", name)
		}
		for _, r := range part {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '_' {
				return fmt.Errorf("metrics: name %q: invalid character %q (want [a-z0-9_.])", name, r)
			}
		}
	}
	return nil
}

// register installs a family; a duplicate or invalid name is a programming
// error and panics.
func (r *Registry) register(name, help string, kind MetricKind, collect func([]Point) []Point) *family {
	if err := validName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	f := &family{name: name, help: help, kind: kind, collect: collect}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter is a monotonically increasing typed instrument.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; a counter never goes down).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers and returns a typed counter instrument.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name}
	r.register(name, help, KindCounter, func(pts []Point) []Point {
		return append(pts, Point{Name: name, Kind: KindCounter, Value: float64(c.v.Load())})
	})
	return c
}

// Gauge is a typed instrument holding one settable value.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers and returns a typed gauge instrument.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name}
	r.register(name, help, KindGauge, func(pts []Point) []Point {
		return append(pts, Point{Name: name, Kind: KindGauge, Value: g.Value()})
	})
	return g
}

// Histogram is a typed instrument with fixed cumulative buckets. Observe
// is lock-free; Gather reads the buckets atomically (each bucket count is
// individually consistent, which is all a scrape needs).
type Histogram struct {
	name   string
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Histogram registers and returns a typed histogram with the given
// ascending bucket upper bounds (a final +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not ascending", name))
		}
	}
	h := &Histogram{name: name, bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
	r.register(name, help, KindHistogram, func(pts []Point) []Point {
		p := Point{Name: name, Kind: KindHistogram, Count: h.count.Load(), Value: h.Sum()}
		var cum uint64
		p.Buckets = make([]BucketCount, 0, len(h.bounds))
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			p.Buckets = append(p.Buckets, BucketCount{Le: b, N: cum})
		}
		return append(pts, p)
	})
	return h
}

// CounterFunc registers a read-through counter: fn is sampled at Gather
// time and must be monotonic (it normally reads an existing subsystem
// counter).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, KindCounter, func(pts []Point) []Point {
		return append(pts, Point{Name: name, Kind: KindCounter, Value: fn()})
	})
}

// GaugeFunc registers a read-through gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, KindGauge, func(pts []Point) []Point {
		return append(pts, Point{Name: name, Kind: KindGauge, Value: fn()})
	})
}

// CounterVecFunc registers a labelled read-through counter: fn returns one
// value per label value (e.g. per shard).
func (r *Registry) CounterVecFunc(name, help, labelKey string, fn func() map[string]float64) {
	r.registerVec(name, help, KindCounter, labelKey, fn)
}

// GaugeVecFunc registers a labelled read-through gauge.
func (r *Registry) GaugeVecFunc(name, help, labelKey string, fn func() map[string]float64) {
	r.registerVec(name, help, KindGauge, labelKey, fn)
}

func (r *Registry) registerVec(name, help string, kind MetricKind, labelKey string, fn func() map[string]float64) {
	r.register(name, help, kind, func(pts []Point) []Point {
		vals := fn()
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return labelLess(keys[i], keys[j]) })
		for _, k := range keys {
			pts = append(pts, Point{Name: name, Kind: kind, LabelKey: labelKey, LabelValue: k, Value: vals[k]})
		}
		return pts
	})
}

// labelLess orders label values numerically when both parse as integers
// (shard "2" before shard "10"), lexically otherwise.
func labelLess(a, b string) bool {
	ai, aerr := strconv.Atoi(a)
	bi, berr := strconv.Atoi(b)
	if aerr == nil && berr == nil {
		return ai < bi
	}
	return a < b
}

// Snapshot is one gathered, name-sorted set of points.
type Snapshot []Point

// Gather samples every family and returns the points sorted by
// (name, label). Read-through collectors run here, so call Gather from the
// execution context that owns their sources (the cluster's engine loop).
func (r *Registry) Gather() Snapshot {
	r.mu.RLock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.RUnlock()
	var pts []Point
	for _, f := range fams {
		pts = f.collect(pts)
	}
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].Name != pts[j].Name {
			return pts[i].Name < pts[j].Name
		}
		return labelLess(pts[i].LabelValue, pts[j].LabelValue)
	})
	return pts
}

// Value gathers just the named family and returns its (unlabelled) value —
// the cheap single-metric read path for call sites like the digest
// response's queue-drop count.
func (r *Registry) Value(name string) float64 {
	r.mu.RLock()
	f := r.byName[name]
	r.mu.RUnlock()
	if f == nil {
		return 0
	}
	for _, p := range f.collect(nil) {
		if p.LabelKey == "" {
			return p.Value
		}
	}
	return 0
}

// Help returns the registered help string for a family ("" if unknown).
func (r *Registry) Help(name string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if f := r.byName[name]; f != nil {
		return f.help
	}
	return ""
}

// Value returns the unlabelled value of the named family in the snapshot
// (0 when absent — gathered metrics default to zero, so reads never need
// an existence dance).
func (s Snapshot) Value(name string) float64 {
	for _, p := range s {
		if p.Name == name && p.LabelKey == "" {
			return p.Value
		}
	}
	return 0
}

// Labeled returns the value of the named family at the given label value.
func (s Snapshot) Labeled(name, labelValue string) float64 {
	for _, p := range s {
		if p.Name == name && p.LabelValue == labelValue {
			return p.Value
		}
	}
	return 0
}

// Has reports whether the snapshot contains the named family.
func (s Snapshot) Has(name string) bool {
	for _, p := range s {
		if p.Name == name {
			return true
		}
	}
	return false
}

// promName mangles a dotted registry name into a Prometheus metric name:
// dots become underscores ("marp.wal.syncs" → "marp_wal_syncs").
func promName(name string) string { return strings.ReplaceAll(name, ".", "_") }

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). The help strings come from the registry the
// snapshot was gathered from.
func (s Snapshot) WritePrometheus(w io.Writer, r *Registry) error {
	var b strings.Builder
	lastFamily := ""
	for _, p := range s {
		pn := promName(p.Name)
		if p.Name != lastFamily {
			lastFamily = p.Name
			if help := r.Help(p.Name); help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", pn, help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", pn, p.Kind)
		}
		switch p.Kind {
		case KindHistogram:
			for _, bk := range p.Buckets {
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", pn, formatFloat(bk.Le), bk.N)
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, p.Count)
			fmt.Fprintf(&b, "%s_sum %s\n", pn, formatFloat(p.Value))
			fmt.Fprintf(&b, "%s_count %d\n", pn, p.Count)
		default:
			if p.LabelKey != "" {
				fmt.Fprintf(&b, "%s{%s=%q} %s\n", pn, p.LabelKey, p.LabelValue, formatFloat(p.Value))
			} else {
				fmt.Fprintf(&b, "%s %s\n", pn, formatFloat(p.Value))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
