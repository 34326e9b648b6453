package obs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"time"
)

// RequestsConfig tunes a tier's request recorder: the counter-sampled
// trace ring and the tail-sampled flight recorder. serve.Config and
// cluster.DispatcherConfig embed it, so both tiers take the same
// settings and reject the same nonsense. The zero value records no
// spans and keeps the flight recorder off.
type RequestsConfig struct {
	// TraceSample is the fraction of requests whose full span timeline
	// is recorded and ring-retained for /debug/requests/trace, in
	// [0, 1]. Sampling is deterministic (every ⌈1/rate⌉-th request).
	// Default 0: no span recording — trace IDs still flow, and an
	// unsampled request pays one nil check per span site.
	TraceSample float64
	// TraceBuffer is how many completed request traces the ring behind
	// /debug/requests/trace retains. 0 means DefaultTraceBuffer.
	TraceBuffer int
	// FlightBuffer, when positive, arms the tail-sampled flight
	// recorder: every request records spans live, and the span set of
	// requests that end 5xx, exceed SlowThreshold, or carry a
	// tier-specific pin reason is kept (up to FlightBuffer entries) at
	// /debug/requests/flight. 0 disables the recorder.
	FlightBuffer int
	// SlowThreshold, when positive and the flight recorder is armed,
	// pins any request slower than this end to end regardless of
	// status. 0 disables the slow trigger.
	SlowThreshold time.Duration
}

// Validate reports an error for settings no tier accepts. A zero
// TraceBuffer is valid (it selects the default).
func (c RequestsConfig) Validate() error {
	if !(c.TraceSample >= 0 && c.TraceSample <= 1) {
		return fmt.Errorf("TraceSample %g, need 0 ≤ rate ≤ 1", c.TraceSample)
	}
	if c.TraceBuffer < 0 {
		return fmt.Errorf("TraceBuffer %d, need ≥ 0", c.TraceBuffer)
	}
	if c.FlightBuffer < 0 {
		return fmt.Errorf("FlightBuffer %d, need ≥ 0", c.FlightBuffer)
	}
	if c.SlowThreshold < 0 {
		return fmt.Errorf("negative SlowThreshold %v", c.SlowThreshold)
	}
	return nil
}

// Requests is one tier's request recorder: it issues trace IDs, decides
// which requests record spans, retains finished ones in the sampled
// ring and the flight recorder, and serves both at
// /debug/requests/{trace,flight}. serve.Server and cluster.Dispatcher
// each own one, so the debug contract is the same at either tier.
type Requests struct {
	buffer int
	tracer *Tracer
	// flight is nil when FlightBuffer is 0.
	flight *FlightRecorder
}

// NewRequests builds the recorder for cfg, stamping its epoch on
// clock (nil means Wall). cfg must be valid.
func NewRequests(cfg RequestsConfig, clock Clock) *Requests {
	if cfg.TraceBuffer == 0 {
		cfg.TraceBuffer = DefaultTraceBuffer
	}
	r := &Requests{
		buffer: cfg.TraceBuffer,
		tracer: NewTracer(TracerConfig{Sample: cfg.TraceSample, BufferSize: cfg.TraceBuffer, Clock: clock}),
	}
	if cfg.FlightBuffer > 0 {
		r.flight = NewFlightRecorder(FlightConfig{Capacity: cfg.FlightBuffer, SlowThreshold: cfg.SlowThreshold})
	}
	return r
}

// Tracer returns the sampled-ring tracer.
func (r *Requests) Tracer() *Tracer { return r.tracer }

// Flight returns the flight recorder, nil when disabled.
func (r *Requests) Flight() *FlightRecorder { return r.flight }

// Start opens one request's record. The trace ID is the caller's
// X-Trace-Id when present (so IDs follow a request across tiers), else
// a fresh one. With the flight recorder armed every request records
// spans live, because a request that turns out bad must have spans to
// pin; otherwise only counter-sampled requests get a non-nil trace.
func (r *Requests) Start(h http.Header, start time.Time) (string, *Trace) {
	id := h.Get(TraceIDHeader)
	if id == "" {
		id = r.tracer.NewID()
	}
	if r.flight != nil {
		return id, r.tracer.StartAlways(id, start)
	}
	return id, r.tracer.StartRequest(id, start)
}

// Finish closes one request's record: the ring retains a sampled
// trace, and the flight recorder judges the request by its status,
// latency, brownout level and any caller-known reasons. Nil traces
// cost nothing.
func (r *Requests) Finish(t *Trace, status int, start, end time.Time, brownoutLevel int, reasons ...string) {
	r.tracer.Finish(t, end)
	r.flight.Note(t, status, end.Sub(start), brownoutLevel, reasons...)
}

// FindTraces returns every retained trace with the given ID: the sampled
// ring's, then the flight recorder's pins not already among them.
func (r *Requests) FindTraces(id string) []*Trace {
	traces := r.tracer.Find(id)
	if r.flight != nil {
		for _, t := range r.flight.Traces(traces) {
			if t.ID == id {
				traces = append(traces, t)
			}
		}
	}
	return traces
}

// WriteChromeTrace writes everything retained — the ring plus flight
// pins not already in it — as Chrome trace-event JSON, the whole-run
// dump capsnet-serve -trace-out writes at shutdown.
func (r *Requests) WriteChromeTrace(w io.Writer) error {
	traces := r.tracer.Last(r.buffer)
	if r.flight != nil {
		traces = append(traces, r.flight.Traces(traces)...)
	}
	return WriteChromeTrace(w, traces, r.tracer.Epoch())
}

// Mount registers the two debug handlers on mux:
//
//	/debug/requests/trace   the ring as Chrome trace JSON; ?last=N bounds
//	                        the request count, ?trace=<id> restricts to one
//	                        request (ring and pins), &format=spans switches
//	                        that answer to the fragment JSON the router's
//	                        fleet merge reads
//	/debug/requests/flight  the flight recorder's pins (404 when disabled)
func (r *Requests) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/debug/requests/trace", r.handleRequestTrace)
	mux.HandleFunc("/debug/requests/flight", r.handleFlight)
}

func (r *Requests) handleRequestTrace(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	if id := q.Get("trace"); id != "" {
		traces := r.FindTraces(id)
		w.Header().Set("Content-Type", "application/json")
		if q.Get("format") == "spans" {
			WriteFragments(w, traces)
			return
		}
		WriteChromeTrace(w, traces, r.tracer.Epoch())
		return
	}
	n := r.buffer
	if qv := q.Get("last"); qv != "" {
		v, err := strconv.Atoi(qv)
		if err != nil || v < 1 {
			http.Error(w, "last must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/json")
	WriteChromeTrace(w, r.tracer.Last(n), r.tracer.Epoch())
}

func (r *Requests) handleFlight(w http.ResponseWriter, req *http.Request) {
	if r.flight == nil {
		http.Error(w, "flight recorder disabled (set FlightBuffer > 0)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	r.flight.WriteJSON(w)
}

// Flags holds the observability flags both serving binaries share.
type Flags struct {
	// Requests is the recorder configuration the flags set.
	Requests  RequestsConfig
	logLevel  string
	logFormat string
}

// BindFlags registers -trace-sample, -trace-buffer, -flight-buffer,
// -slow-threshold, -log-level and -log-format on fs. The flight
// recorder is armed by default (DefaultFlightBuffer), unlike the zero
// RequestsConfig.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Float64Var(&f.Requests.TraceSample, "trace-sample", 0, "fraction of requests to record full span timelines for (0 disables, 1 records all)")
	fs.IntVar(&f.Requests.TraceBuffer, "trace-buffer", DefaultTraceBuffer, "completed request traces retained for /debug/requests/trace")
	fs.IntVar(&f.Requests.FlightBuffer, "flight-buffer", DefaultFlightBuffer, "flight-recorder capacity: bad requests (5xx, slow; a replica also pins aborted-batch and brownout requests) pinned with full span sets at /debug/requests/flight (0 disables)")
	fs.DurationVar(&f.Requests.SlowThreshold, "slow-threshold", 0, "pin requests slower than this end-to-end in the flight recorder (0 disables the slow trigger)")
	fs.StringVar(&f.logLevel, "log-level", "info", "minimum log level: debug | info | warn | error")
	fs.StringVar(&f.logFormat, "log-format", "text", "log output format: text | json")
	return f
}

// BuildLogger builds the process logger (stderr) from -log-level and
// -log-format.
func (f *Flags) BuildLogger() (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(f.logLevel)); err != nil {
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", f.logLevel)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch f.logFormat {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", f.logFormat)
}
