package wire

import "testing"

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
