package wire

import (
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// DeadlineHeader carries a request's end-to-end deadline as absolute
// integer Unix milliseconds, e.g. "X-Deadline: 1754700000123". Clients
// (or capsnet-router -budget) stamp it, the router deducts elapsed time
// before every retry or hedge, and capsnet-serve derives the request's
// context from it, so the budget is spent once across all hops instead
// of resetting at each. An absolute instant survives any number of hops
// without re-encoding: every tier compares it against its own clock,
// and the skew between clocks on one host is zero. Millisecond
// resolution matches the stack's timeouts and truncates toward the
// past, so a budget shrinks, never grows, across a hop.
const DeadlineHeader = "X-Deadline"

// FormatDeadline renders t as the DeadlineHeader wire value.
func FormatDeadline(t time.Time) string {
	return strconv.FormatInt(t.UnixMilli(), 10)
}

// ParseDeadline decodes one DeadlineHeader value. ok is false when
// value is empty (no deadline was propagated); err is non-nil when a
// value is present but not a positive integer millisecond timestamp.
func ParseDeadline(value string) (t time.Time, ok bool, err error) {
	if value == "" {
		return time.Time{}, false, nil
	}
	ms, perr := strconv.ParseInt(value, 10, 64)
	if perr != nil || ms <= 0 {
		return time.Time{}, false, fmt.Errorf("deadline: %q is not a positive Unix-millisecond timestamp", value)
	}
	return time.UnixMilli(ms), true, nil
}

// DeadlineFromRequest extracts the propagated deadline from h. ok is
// false when no deadline header is present.
func DeadlineFromRequest(h http.Header) (t time.Time, ok bool, err error) {
	return ParseDeadline(h.Get(DeadlineHeader))
}

// SetDeadline stamps h with t as the propagated deadline.
func SetDeadline(h http.Header, t time.Time) {
	h.Set(DeadlineHeader, FormatDeadline(t))
}
