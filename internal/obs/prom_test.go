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
	goldens, _ := filepath.Glob("../../testdata/*.golden")
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

		overflow := uint64(0)
		if math.Abs(v) > 1 {
			overflow = 1
		}
		sum := float64(uint64(math.Abs(v)*1e6+0.5)) / 1e6
		want := []struct {
			series string
			value  float64
		}{
			{name + "_total", float64(n)},
			{name + "_by", float64(n)},
			{name + "_seconds", math.NaN()}, // three quantiles: any number
			{name + "_seconds", math.NaN()},
			{name + "_seconds", math.NaN()},
			{name + "_seconds_bucket", float64(1 - overflow)},
			{name + "_seconds_bucket", 1},
			{name + "_seconds_sum", sum},
			{name + "_seconds_count", 1},
			{name + "_seconds_overflow_total", float64(overflow)},
			{name + "_value", v},
		}
		if len(got) != len(want) {
			t.Fatalf("parsed %d series, registered %d:\n%s", len(got), len(want), sb.String())
		}
		for i, w := range want {
			gv, err := got[i].Float()
			if got[i].Name != w.series || err != nil || (gv != w.value && !math.IsNaN(w.value)) {
				t.Fatalf("series %d = %q, want %s = %v", i, got[i], w.series, w.value)
			}
		}
		if got[1].Label("a") != label || got[1].Label("b") != string(data) || got[10].Label("l") != label {
			t.Fatalf("label values did not survive the round trip:\n%s", sb.String())
		}
		for _, s := range got[2:10] {
			if s.Label("stage") != label {
				t.Fatalf("histogram line %q lost its stage label %q", s, label)
			}
		}
	})
}
