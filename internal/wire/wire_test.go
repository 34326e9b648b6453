package wire

import (
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
