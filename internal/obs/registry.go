package obs

import (
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is the one writer of the text exposition format: metric
// families registered once, in the order they are written, each
// handing back the handle its call sites increment. Registering a
// series name twice panics — it is a construction-time bug.
type Registry struct {
	mu sync.Mutex
	//pimcaps:guardedby mu
	names map[string]bool
	//pimcaps:guardedby mu
	families []func(*Emitter)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{names: make(map[string]bool)} }

func (r *Registry) register(series string, write func(*Emitter)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if series != "" {
		if r.names[series] {
			panic("obs: metric " + series + " registered twice")
		}
		r.names[series] = true
	}
	r.families = append(r.families, write)
}

// Counter is a monotonically increasing integer series.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Counter registers an unlabelled counter.
func (r *Registry) Counter(name string) *Counter {
	c := new(Counter)
	r.register(name, func(e *Emitter) { e.Int(name, c.Value()) })
	return c
}

// GaugeFunc registers a gauge sampled by calling fn at every scrape.
func (r *Registry) GaugeFunc(name string, fn func() uint64) {
	r.register(name, func(e *Emitter) { e.Int(name, fn()) })
}

// Histogram registers an unlabelled fixed-bucket histogram.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	h := NewHistogram(bounds...)
	r.register(name, func(e *Emitter) { h.write(e, name) })
	return h
}

// Collect registers fn to emit, at every scrape, families that only
// exist then: gauges derived from a snapshot, windows over a clock.
func (r *Registry) Collect(fn func(*Emitter)) { r.register("", fn) }

// vec is a family of T keyed by the values of a fixed list of label
// names; children are created on first use and never removed.
type vec[T any] struct {
	keys     []string
	newChild func() *T

	mu sync.RWMutex
	//pimcaps:guardedby mu
	children map[string]*vecChild[T]
}

type vecChild[T any] struct {
	labels []string // key, value pairs
	m      *T
}

// with resolves the child for one value per label name. One-label
// vectors key on the bare value, so the lookup on a hot path is one
// read-locked map access.
func (v *vec[T]) with(vals ...string) *T {
	if len(vals) != len(v.keys) {
		panic("obs: metric vector wants " + strconv.Itoa(len(v.keys)) + " label values")
	}
	if len(vals) == 1 {
		return v.child(vals[0], vals)
	}
	return v.child(string(appendSeries(nil, "", v.pairs(vals))), vals)
}

func (v *vec[T]) child(key string, vals []string) *T {
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c.m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[key]; !ok {
		c = &vecChild[T]{labels: v.pairs(vals), m: v.newChild()}
		v.children[key] = c
	}
	return c.m
}

func (v *vec[T]) pairs(vals []string) []string {
	pairs := make([]string, 0, 2*len(vals))
	for i, val := range vals {
		pairs = append(pairs, v.keys[i], val)
	}
	return pairs
}

// sorted snapshots the children in label order, for a stable scrape.
func (v *vec[T]) sorted() []*vecChild[T] {
	v.mu.RLock()
	out := make([]*vecChild[T], 0, len(v.children))
	for _, c := range v.children {
		out = append(out, c)
	}
	v.mu.RUnlock()
	slices.SortFunc(out, func(a, b *vecChild[T]) int { return slices.Compare(a.labels, b.labels) })
	return out
}

func newVec[T any](keys []string, newChild func() *T) vec[T] {
	return vec[T]{keys: keys, newChild: newChild, children: make(map[string]*vecChild[T])}
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ v vec[Counter] }

// With returns the counter for one value per label name, creating it
// (at zero, and from then on exposed) on first use.
func (c *CounterVec) With(vals ...string) *Counter { return c.v.with(vals...) }

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	c := &CounterVec{newVec(keys, func() *Counter { return new(Counter) })}
	r.register(name, func(e *Emitter) {
		for _, child := range c.v.sorted() {
			e.Int(name, child.m.Value(), child.labels...)
		}
	})
	return c
}

// HistogramVec is a histogram family partitioned by one label.
type HistogramVec struct{ v vec[Histogram] }

// With returns the histogram for the label value, creating it on first
// use. Observing through a resolved child allocates nothing.
func (h *HistogramVec) With(val string) *Histogram { return h.v.child(val, []string{val}) }

// HistogramVec registers a histogram family with one label name; every
// child shares the bucket layout.
func (r *Registry) HistogramVec(name, key string, bounds ...float64) *HistogramVec {
	h := &HistogramVec{newVec([]string{key}, func() *Histogram { return NewHistogram(bounds...) })}
	r.register(name, func(e *Emitter) {
		for _, child := range h.v.sorted() {
			child.m.write(e, name, child.labels...)
		}
	})
	return h
}

// WriteText renders every registered family, in registration order.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	families := r.families
	r.mu.Unlock()
	e := Emitter{buf: make([]byte, 0, 16<<10)} // a serve scrape is ~20 kB
	for _, write := range families {
		write(&e)
	}
	w.Write(e.buf)
}

// Handler serves the exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// Emitter renders sample lines — `name value` or `name{k="v",...}
// value` — into a buffer; the zero value is ready to use. It is what
// collectors are handed, and the only code that formats a line.
type Emitter struct{ buf []byte }

// Bytes returns everything emitted so far.
func (e *Emitter) Bytes() []byte { return e.buf }

// Int emits an integer-valued sample; labels are key, value pairs.
func (e *Emitter) Int(name string, v uint64, labels ...string) {
	e.buf = append(strconv.AppendUint(append(appendSeries(e.buf, name, labels), ' '), v, 10), '\n')
}

// Float emits a float-valued sample in %g form.
func (e *Emitter) Float(name string, v float64, labels ...string) {
	e.buf = append(strconv.AppendFloat(append(appendSeries(e.buf, name, labels), ' '), v, 'g', -1, 64), '\n')
}

// Sample emits a parsed sample with its value text untouched.
func (e *Emitter) Sample(s PromSample) { e.buf = append(append(e.buf, s.String()...), '\n') }

// appendSeries renders `name` or `name{k="v",...}` from key, value
// pairs.
func appendSeries(buf []byte, name string, pairs []string) []byte {
	if len(pairs)%2 != 0 {
		panic("obs: labels must be key, value pairs")
	}
	buf = append(buf, name...)
	for i := 0; i < len(pairs); i += 2 {
		buf = appendLabel(buf, i == 0, pairs[i], pairs[i+1])
	}
	if len(pairs) > 0 {
		buf = append(buf, '}')
	}
	return buf
}

// appendLabel renders one `k="v"` pair behind its '{' or ','. This is
// the one escaping rule — backslash, double quote and newline — and
// ParsePromText is its inverse.
func appendLabel(buf []byte, first bool, key, val string) []byte {
	if first {
		buf = append(buf, '{')
	} else {
		buf = append(buf, ',')
	}
	buf = append(append(buf, key...), '=', '"')
	for i := 0; i < len(val); i++ {
		switch c := val[i]; c {
		case '\\', '"':
			buf = append(buf, '\\', c)
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}
