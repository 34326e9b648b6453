package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestRegistryWriteText pins what each kind of family renders, in
// registration order, with vector children sorted by label.
func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total")
	v := r.CounterVec("b_total", "replica", "code")
	r.GaugeFunc("c_depth", func() uint64 { return 7 })
	r.Collect(func(e *Emitter) { e.Float("d_ratio", 0.25, "window", "1m0s") })
	c.Add(41)
	c.Inc()
	v.With("r1", "200").Inc()
	v.With("r0", "error").Add(2)
	v.With("r0", "a\"b\\c\nd") // created at zero, exposed from then on

	var sb strings.Builder
	r.WriteText(&sb)
	want := `a_total 42
b_total{replica="r0",code="a\"b\\c\nd"} 0
b_total{replica="r0",code="error"} 2
b_total{replica="r1",code="200"} 1
c_depth 7
d_ratio{window="1m0s"} 0.25
`
	if sb.String() != want {
		t.Errorf("got:\n%swant:\n%s", sb.String(), want)
	}
	if got := v.With("r0", "error").Value(); got != 2 {
		t.Errorf("resolved child Value() = %d, want 2", got)
	}
}

// TestRegistryDuplicateNamePanics: registering a series name twice is
// a construction-time bug, whichever kinds collide.
func TestRegistryDuplicateNamePanics(t *testing.T) {
	for kind, register := range map[string]func(*Registry){
		"counter":   func(r *Registry) { r.Counter("x") },
		"vec":       func(r *Registry) { r.CounterVec("x", "k") },
		"gauge":     func(r *Registry) { r.GaugeFunc("x", func() uint64 { return 0 }) },
		"histogram": func(r *Registry) { r.Histogram("x", 1) },
		"histvec":   func(r *Registry) { r.HistogramVec("x", "k", 1) },
	} {
		r := NewRegistry()
		r.Counter("x")
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %s under a taken name did not panic", kind)
				}
			}()
			register(r)
		}()
	}
}

// TestRegistryConcurrent increments, observes and resolves new vector
// children while scrapes run; meaningful under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	cv := r.CounterVec("cv_total", "k")
	hv := r.HistogramVec("h_seconds", "stage", 0.001, 0.01)
	const workers, per = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				cv.With(strconv.Itoa(i % 17)).Inc()
				hv.With("s" + strconv.Itoa((w+i)%5)).Observe(0.002)
				if i%50 == 0 {
					var sb strings.Builder
					r.WriteText(&sb)
				}
			}
		}(w)
	}
	wg.Wait()
	var sb strings.Builder
	r.WriteText(&sb)
	samples := ParsePromText([]byte(sb.String()))
	if v, _ := samples.Value("c_total"); v != workers*per {
		t.Errorf("c_total = %v, want %d", v, workers*per)
	}
	var byKey, observed float64
	for _, s := range samples.Family("cv_total") {
		v, _ := s.Float()
		byKey += v
	}
	for _, s := range samples.Family("h_seconds_count") {
		v, _ := s.Float()
		observed += v
	}
	if byKey != workers*per || observed != workers*per {
		t.Errorf("vector totals %v and %v, want %d each", byKey, observed, workers*per)
	}
}

// TestVecObserveAllocFree: on the forward path a stage observation is
// a vector lookup plus Observe, and must allocate nothing once the
// child exists.
func TestVecObserveAllocFree(t *testing.T) {
	hv := NewRegistry().HistogramVec("h_seconds", "stage", 0.001, 0.01)
	child := hv.With("conv")
	if n := testing.AllocsPerRun(100, func() { child.Observe(0.002) }); n != 0 {
		t.Errorf("Observe through a resolved child: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { hv.With("conv").Observe(0.002) }); n != 0 {
		t.Errorf("With + Observe: %v allocs/op, want 0", n)
	}
}

func BenchmarkVecObserve(b *testing.B) {
	hv := NewRegistry().HistogramVec("h_seconds", "stage", 0.000025, 0.0001, 0.00025, 0.0005, 0.001,
		0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5)
	for _, s := range []string{"conv", "forward", "routing_iteration"} {
		hv.With(s)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hv.With("routing_iteration").Observe(0.0004)
	}
}
