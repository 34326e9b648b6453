package wire

import (
	"net/http"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	want := time.Date(2026, 8, 9, 12, 30, 45, 123_000_000, time.UTC)
	got, ok, err := ParseDeadline(FormatDeadline(want))
	if err != nil || !ok {
		t.Fatalf("ParseDeadline(FormatDeadline(%v)) = ok=%v err=%v", want, ok, err)
	}
	if !got.Equal(want) {
		t.Fatalf("round trip lost precision: got %v, want %v", got, want)
	}
}

func TestParseEmpty(t *testing.T) {
	_, ok, err := ParseDeadline("")
	if ok || err != nil {
		t.Fatalf("ParseDeadline(\"\") = ok=%v err=%v, want absent with no error", ok, err)
	}
}

func TestParseInvalid(t *testing.T) {
	for _, v := range []string{"abc", "-5", "0", "1.5", "2026-08-09T12:00:00Z"} {
		if _, ok, err := ParseDeadline(v); err == nil || ok {
			t.Errorf("ParseDeadline(%q) = ok=%v err=%v, want error", v, ok, err)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := http.Header{}
	if _, ok, err := DeadlineFromRequest(h); ok || err != nil {
		t.Fatalf("DeadlineFromRequest on empty header = ok=%v err=%v", ok, err)
	}
	want := time.Now().Add(750 * time.Millisecond).Truncate(time.Millisecond)
	SetDeadline(h, want)
	got, ok, err := DeadlineFromRequest(h)
	if err != nil || !ok {
		t.Fatalf("DeadlineFromRequest = ok=%v err=%v", ok, err)
	}
	if !got.Equal(want) {
		t.Fatalf("header round trip: got %v, want %v", got, want)
	}
}

// TestSubMillisecondTruncation pins the wire resolution: formatting
// truncates to the millisecond, so budgets shrink (never grow) across
// a hop.
func TestSubMillisecondTruncation(t *testing.T) {
	base := time.UnixMilli(1_754_700_000_123)
	got, ok, err := ParseDeadline(FormatDeadline(base.Add(900 * time.Microsecond)))
	if err != nil || !ok {
		t.Fatal(err)
	}
	if !got.Equal(base) {
		t.Fatalf("sub-millisecond component must truncate toward the past: got %v, want %v", got, base)
	}
}

// FuzzParseDeadline holds the header parser to its contract on any
// input: it never panics, an empty value is "no deadline" and never an
// error, and every accepted value is a positive instant that
// round-trips exactly through FormatDeadline.
func FuzzParseDeadline(f *testing.F) {
	f.Add("1754700000123") // the edge cases live in testdata/fuzz
	f.Fuzz(func(t *testing.T, value string) {
		got, ok, err := ParseDeadline(value)
		if value == "" {
			if ok || err != nil {
				t.Fatalf("ParseDeadline(\"\") = ok=%v err=%v, want no deadline", ok, err)
			}
			return
		}
		if ok == (err != nil) {
			t.Fatalf("ParseDeadline(%q) = ok=%v err=%v: exactly one must hold", value, ok, err)
		}
		if !ok {
			return
		}
		if got.UnixMilli() <= 0 {
			t.Fatalf("ParseDeadline(%q) accepted non-positive %d", value, got.UnixMilli())
		}
		wire := FormatDeadline(got)
		back, ok, err := ParseDeadline(wire)
		if err != nil || !ok || !back.Equal(got) {
			t.Fatalf("ParseDeadline(%q) = %v, but FormatDeadline gives %q which parses to %v (ok=%v err=%v)", value, got, wire, back, ok, err)
		}
		if again := FormatDeadline(back); again != wire {
			t.Fatalf("FormatDeadline not stable: %q then %q", wire, again)
		}
	})
}
