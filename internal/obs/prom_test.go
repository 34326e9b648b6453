//pimcaps:bitexact

package obs

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// promCorners are the exposition-format corners the scraper must
// survive: escaped label values, no-label samples, comments, and junk
// lines.
var promCorners = strings.Join([]string{
	`# HELP something informational`,
	`plain_counter 42`,
	`labeled{a="x",b="with \"quotes\" and \\ and \n newline"} 1.5`,
	`spaced{le="+Inf"} 7`,
	`malformed{unterminated 3`,
	``,
	`negative_gauge -2.25e-3`,
}, "\n")

func TestParsePromText(t *testing.T) {
	samples := ParsePromText([]byte(promCorners))
	if len(samples) != 4 {
		t.Fatalf("parsed %d samples, want 4: %+v", len(samples), samples)
	}
	if samples[0].Name != "plain_counter" || samples[0].Value != "42" {
		t.Fatalf("plain sample mangled: %+v", samples[0])
	}
	if got := samples[1].Label("b"); got != "with \"quotes\" and \\ and \n newline" {
		t.Fatalf("escape decoding broken: %q", got)
	}
	if samples[2].Label("le") != "+Inf" {
		t.Fatalf("le label mangled: %+v", samples[2])
	}
	if samples[3].Name != "negative_gauge" || samples[3].Value != "-2.25e-3" {
		t.Fatalf("negative exponent sample mangled: %+v", samples[3])
	}
}

// TestPromSamplesLookups covers the two lookups every reader uses: one
// series by name and exact label set, and the samples of a family.
func TestPromSamplesLookups(t *testing.T) {
	samples := ParsePromText([]byte(`x_sum{stage="conv"} 3
x_sum{replica="r0",stage="conv"} 1
x_sum{stage="bad"} not-a-number
x_total 9
`))
	if v, ok := samples.Value("x_sum", "stage", "conv"); !ok || v != 3 {
		t.Errorf(`Value(x_sum, stage=conv) = %v, %v; want the series with exactly that label set`, v, ok)
	}
	if v, ok := samples.Value("x_sum", "replica", "r0", "stage", "conv"); !ok || v != 1 {
		t.Errorf("Value of the two-label series = %v, %v; want 1", v, ok)
	}
	if v, ok := samples.Value("x_total"); !ok || v != 9 {
		t.Errorf("Value(x_total) = %v, %v", v, ok)
	}
	for _, miss := range [][]string{{"x_sum"}, {"x_sum", "stage", "bad"}, {"x_sum", "stage", "none"}, {"y"}} {
		if _, ok := samples.Value(miss[0], miss[1:]...); ok {
			t.Errorf("Value(%v) found a series", miss)
		}
	}
	if fam := samples.Family("x_sum"); len(fam) != 3 || fam[1].Label("replica") != "r0" {
		t.Errorf("Family(x_sum) = %+v", fam)
	}
}

// fuzzName maps arbitrary text into the metric-name grammar.
func fuzzName(s string) string {
	name := []byte("m_" + s)
	for i, c := range name {
		if !isMetricNameChar(c, i == 0) {
			name[i] = '_'
		}
	}
	return string(name)
}

// FuzzParsePromText: the parser never panics and whatever it returns
// re-renders to a line it parses back to the same sample; and a
// registry filled from the input — names forced into the metric
// grammar, label values arbitrary, values finite — parses back to
// exactly the registered series and values.
func FuzzParsePromText(f *testing.F) {
	f.Add([]byte(promCorners), "conv", uint64(3), 0.25)
	f.Add([]byte("x{a=\"\\\\\\\"\\n\"} 1\nx{a=\"\\q\"}2\nx{ ,a=\"1\" , } 3 4"), "a\"b\\c\nd", uint64(1<<63), 1e300)
	goldens, _ := filepath.Glob("../../testdata/*") // the three goldens and the stub replica bodies
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, path, uint64(len(data)), 5e-5)
	}
	f.Fuzz(func(t *testing.T, data []byte, label string, n uint64, v float64) {
		for _, s := range ParsePromText(data) {
			if again := ParsePromText([]byte(s.String())); len(again) != 1 || !reflect.DeepEqual(again[0], s) {
				t.Fatalf("sample %q re-parsed as %q", s, again)
			}
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		name := fuzzName(label)
		r := NewRegistry()
		r.Counter(name + "_total").Add(n)
		r.CounterVec(name+"_by", "a", "b").With(label, string(data)).Add(n)
		r.HistogramVec(name+"_seconds", "stage", 1).With(label).Observe(math.Abs(v))
		r.Collect(func(e *Emitter) { e.Float(name+"_value", v, "l", label) })
		var sb strings.Builder
		r.WriteText(&sb)
		got := ParsePromText([]byte(sb.String()))

		// Exactly the registered series: two counters, the histogram's
		// three quantiles + two buckets + sum/count/overflow, one float;
		// each found under its exact labels with its exact value.
		if len(got) != 11 {
			t.Fatalf("parsed %d series, registered 11:\n%s", len(got), sb.String())
		}
		for _, want := range []struct {
			value  float64
			series []string
		}{
			{float64(n), []string{name + "_total"}},
			{float64(n), []string{name + "_by", "a", label, "b", string(data)}},
			{1, []string{name + "_seconds_bucket", "stage", label, "le", "+Inf"}},
			{float64(uint64(math.Abs(v)*1e6+0.5)) / 1e6, []string{name + "_seconds_sum", "stage", label}},
			{1, []string{name + "_seconds_count", "stage", label}},
			{v, []string{name + "_value", "l", label}},
		} {
			if gv, ok := got.Value(want.series[0], want.series[1:]...); !ok || gv != want.value {
				t.Fatalf("%q = %v (present %v), want %v:\n%s", want.series, gv, ok, want.value, sb.String())
			}
		}
	})
}
