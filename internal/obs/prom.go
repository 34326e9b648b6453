package obs

import (
	"strconv"
	"strings"
)

// PromLabel is one label pair of a parsed exposition sample, in
// source order.
type PromLabel struct {
	Key, Val string
}

// PromSample is one line of a text exposition: name{labels} value.
type PromSample struct {
	Name   string
	Labels []PromLabel
	// Value keeps the raw value text so per-replica re-export is
	// byte-faithful; Float parses it on demand.
	Value string
}

// Label returns the value of the named label ("" if absent).
func (s PromSample) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Val
		}
	}
	return ""
}

// Float parses the value text.
func (s PromSample) Float() (float64, error) { return strconv.ParseFloat(s.Value, 64) }

// Series renders the sample's identity, `name` or `name{k="v",...}`,
// as the Registry would write it.
func (s PromSample) Series() string {
	buf := []byte(s.Name)
	for i, l := range s.Labels {
		buf = appendLabel(buf, i == 0, l.Key, l.Val)
	}
	if len(s.Labels) > 0 {
		buf = append(buf, '}')
	}
	return string(buf)
}

// String renders the sample as the line the Registry would write.
func (s PromSample) String() string { return s.Series() + " " + s.Value }

// PromSamples is a parsed exposition, in source order.
type PromSamples []PromSample

// Family returns the samples with the given metric name.
func (p PromSamples) Family(name string) PromSamples {
	var out PromSamples
	for _, s := range p {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Value returns the value of the series with the given name and
// labels (key, value pairs in wire order), and whether such a series
// with a numeric value exists.
func (p PromSamples) Value(name string, labels ...string) (float64, bool) {
	series := string(appendSeries(nil, name, labels))
	for _, s := range p {
		if s.Name == name && s.Series() == series {
			v, err := s.Float()
			return v, err == nil
		}
	}
	return 0, false
}

// ParsePromText parses the text exposition format the Registry emits:
// one `name value` or `name{k="v",...} value` sample per line, #
// comments skipped. Lines that do not parse are dropped rather than
// failing the whole scrape — a fleet view with one malformed family
// beats no fleet view.
func ParsePromText(data []byte) PromSamples {
	var out PromSamples
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, ok := parsePromLine(line)
		if ok {
			out = append(out, s)
		}
	}
	return out
}

func parsePromLine(line string) (PromSample, bool) {
	var s PromSample
	i := 0
	for i < len(line) && isMetricNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, false
	}
	s.Name = line[:i]
	if i < len(line) && line[i] == '{' {
		rest, labels, ok := parsePromLabels(line[i:])
		if !ok {
			return s, false
		}
		s.Labels = labels
		line = rest
	} else {
		line = line[i:]
	}
	s.Value = strings.TrimSpace(line)
	if s.Value == "" || strings.ContainsAny(s.Value, " \t") {
		return s, false
	}
	return s, true
}

func isMetricNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// parsePromLabels consumes a {k="v",...} block (s starts at '{') and
// returns the remainder of the line after '}'.
func parsePromLabels(s string) (rest string, labels []PromLabel, ok bool) {
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ',' || s[i] == ' ') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return s[i+1:], labels, true
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) {
			return "", nil, false
		}
		key := s[start:i]
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return "", nil, false
		}
		i++
		var val strings.Builder
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
			} else {
				val.WriteByte(s[i])
			}
			i++
		}
		if i >= len(s) {
			return "", nil, false
		}
		i++ // closing '"'
		labels = append(labels, PromLabel{Key: key, Val: val.String()})
	}
}
