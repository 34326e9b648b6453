package wire

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// TestValidClassifyReply pins the router's reply check: a decodable
// body with a class that indexes non-empty, finite probabilities
// passes; anything else is corrupt and costs a retry.
func TestValidClassifyReply(t *testing.T) {
	for body, want := range map[string]bool{
		`{"class":1,"probs":[0.1,0.8,0.1],"poses":null,"batch":1}`: true,
		`{"class":0,"probs":[1e300]}`:                              true, // finite as float64
		`{"class":0,"probs":[0.5],"poses":"not checked"}`:          true,
		`{"class":1,"probs":[0.1,0.8`:                              false, // truncated
		`{"class":3,"probs":[0.1,0.8,0.1]}`:                        false,
		`{"class":-1,"probs":[0.1]}`:                               false,
		`{"class":0,"probs":[]}`:                                   false,
		`{"class":0}`:                                              false,
		`{"class":0,"probs":[1e999]}`:                              false, // overflows float64
		`{"class":0,"probs":[NaN]}`:                                false,
		`{"class":"0","probs":[0.5]}`:                              false,
		``:                                                         false,
	} {
		if got := ValidClassifyReply([]byte(body)); got != want {
			t.Errorf("ValidClassifyReply(%s) = %v, want %v", body, got, want)
		}
	}
}

// TestClassifyReplyLimitAdmitsLongestEncodings: a reply whose every
// probability and pose entry is a float32 with the longest encoding
// encoding/json writes, and whose class and batch are the widest ints,
// fits ClassifyReplyLimit with the encoder's trailing newline.
func TestClassifyReplyLimitAdmitsLongestEncodings(t *testing.T) {
	longest := float32(-9.999999e20)
	if b, _ := json.Marshal(longest); len(b) != 22 {
		t.Fatalf("%v encodes as %s, %d bytes; want the 22-byte longest", longest, b, len(b))
	}
	for _, shape := range []struct{ classes, dim int }{{1, 1}, {3, 4}, {10, 16}, {200, 32}} {
		resp := ClassifyResponse{Class: math.MaxInt64, Batch: math.MinInt64, Probs: make([]float32, shape.classes)}
		for i := range resp.Probs {
			resp.Probs[i] = longest
			pose := make([]float32, shape.dim)
			for j := range pose {
				pose[j] = longest
			}
			resp.Poses = append(resp.Poses, pose)
		}
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		limit := ClassifyReplyLimit(shape.classes, shape.dim)
		if int64(len(b))+1 > limit {
			t.Fatalf("%d×%d: longest reply is %d bytes, over the %d limit", shape.classes, shape.dim, len(b)+1, limit)
		}
	}
}

// FuzzValidClassifyReply holds the router's reply check to its
// contract. Any raw body is judged without a panic. A reply the
// encoder writes — a json.Marshal-ed ClassifyResponse whose
// probabilities and poses are the fuzzed float32 bits, len(probs)
// classes of dim-wide poses — is accepted iff its class indexes a
// non-empty probs, and with the encoder's trailing newline it fits
// ClassifyReplyLimit(len(probs), dim).
func FuzzValidClassifyReply(f *testing.F) {
	f.Add([]byte(`{"class":1,"probs":[0.1,0.8,0.1]}`), 1, 8, uint8(4),
		[]byte{0, 0, 128, 63, 0, 0, 0, 63}, []byte{205, 204, 76, 62}) // the edge cases live in testdata/fuzz
	f.Fuzz(func(t *testing.T, body []byte, class, batch int, dim uint8, probBits, poseBits []byte) {
		ValidClassifyReply(body)

		resp := ClassifyResponse{Class: class, Batch: batch, Probs: float32s(probBits, len(probBits)/4)}
		for range resp.Probs {
			resp.Poses = append(resp.Poses, float32s(poseBits, int(dim%33)))
		}
		b, err := json.Marshal(resp)
		if err != nil {
			return // a non-finite float32: the encoder writes no reply
		}
		want := len(resp.Probs) > 0 && class >= 0 && class < len(resp.Probs)
		if got := ValidClassifyReply(b); got != want {
			t.Fatalf("ValidClassifyReply(%s) = %v, want %v", b, got, want)
		}
		if limit := ClassifyReplyLimit(len(resp.Probs), int(dim%33)); int64(len(b))+1 > limit {
			t.Fatalf("%d classes × %d: reply is %d bytes with its newline, over the %d limit", len(resp.Probs), dim%33, len(b)+1, limit)
		}
	})
}

// float32s decodes n little-endian float32s from bits, cycling through
// them (zeros when bits is shorter than one float).
func float32s(bits []byte, n int) []float32 {
	xs := make([]float32, n)
	if len(bits) < 4 {
		return xs
	}
	for i := range xs {
		o := 4 * i % (len(bits) / 4 * 4)
		xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(bits[o:]))
	}
	return xs
}
