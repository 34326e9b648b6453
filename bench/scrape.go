package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// expo is one scrape of a text exposition: series text as exposed
// (`name` or `name{k="v",...}`) → value. The benchmark owns this
// reader rather than borrowing the router's parser, because the router
// is one of the things it measures.
type expo map[string]float64

// parseExpo reads `series value` lines, skipping comments and lines
// that do not parse. With fleet set the body is /metrics/fleet: only
// the per-replica re-exports (first label replica="…") are kept, that
// label is dropped, and replicas are summed — so a fleet scrape reads
// exactly like one server's /metrics.
func parseExpo(body []byte, fleet bool) expo {
	out := expo{}
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 || line[0] == '#' {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		series := strings.TrimSpace(line[:cut])
		if fleet {
			var ok bool
			if series, ok = dropReplicaLabel(series); !ok {
				continue
			}
		}
		out[series] += v
	}
	return out
}

// dropReplicaLabel removes a leading replica="…" label, reporting
// whether the series had one.
func dropReplicaLabel(series string) (string, bool) {
	const marker = `{replica="`
	open := strings.Index(series, marker)
	if open < 0 {
		return series, false
	}
	rest := series[open+len(marker):]
	quote := strings.IndexByte(rest, '"')
	if quote < 0 {
		return series, false
	}
	rest = rest[quote+1:]
	switch {
	case strings.HasPrefix(rest, ","):
		return series[:open] + "{" + rest[1:], true
	case rest == "}":
		return series[:open], true
	}
	return series, false
}

// minus returns e − before, series by series: the activity between two
// scrapes of cumulative counters and histogram sums.
func (e expo) minus(before expo) expo {
	d := make(expo, len(e))
	for k, v := range e {
		d[k] = v - before[k]
	}
	return d
}

// mean returns a histogram family's mean observation and count, from
// its _sum and _count series with the given label block (empty, or
// `{stage="conv"}`).
func (e expo) mean(family, labels string) (mean, count float64) {
	count = e[family+"_count"+labels]
	if count == 0 {
		return 0, 0
	}
	return e[family+"_sum"+labels] / count, count
}

// withPrefix returns the series that start with prefix.
func (e expo) withPrefix(prefix string) expo {
	out := expo{}
	for k, v := range e {
		if strings.HasPrefix(k, prefix) {
			out[k] = v
		}
	}
	return out
}

// scrape GETs one exposition endpoint.
func scrape(ctx context.Context, client *http.Client, url string, fleet bool) (expo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return parseExpo(body, fleet), nil
}
