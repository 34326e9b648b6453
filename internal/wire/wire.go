// Package wire is the serving protocol, declared once: the X-Deadline
// header, the /v1/classify bodies and their size bound, the /v1/model
// descriptor and the /readyz load body. It is standard-library only, so
// both tiers (internal/serve, internal/cluster) and the clients that
// measure them from outside compile against it without linking each
// other or the model; it carries no behavior from either side, which is
// why the layer table admits it across the tier boundary.
package wire

import (
	"encoding/json"
	"math"
)

// ClassifyRequest is the POST /v1/classify body: one flattened image,
// Channels·H·W values in row-major C×H×W order, pixels in [0, 1].
type ClassifyRequest struct {
	Image []float32 `json:"image"`
}

// ClassifyResponse is the classify reply. Probs are the capsule
// lengths ‖v_j‖ (CapsNet's class probabilities), Poses the final
// DigitDim-dimensional capsule vector per class, and Batch the size of
// the micro-batch this request shared a forward pass with.
type ClassifyResponse struct {
	Class int         `json:"class"`
	Probs []float32   `json:"probs"`
	Poses [][]float32 `json:"poses"`
	Batch int         `json:"batch"`
}

// ModelInfo is the GET /v1/model reply describing the loaded network,
// so clients can size their images without out-of-band knowledge.
type ModelInfo struct {
	Channels          int    `json:"channels"`
	Height            int    `json:"height"`
	Width             int    `json:"width"`
	Classes           int    `json:"classes"`
	DigitDim          int    `json:"digit_dim"`
	RoutingIterations int    `json:"routing_iterations"`
	RoutingMode       string `json:"routing_mode"`
}

// Load is the /readyz body: the load signals the router's placement
// ranks replicas by. The status code alone carries readiness (200
// serving, 503 draining), so probes that only read the code still work.
type Load struct {
	// Status is "ready" or "draining", mirroring the status code.
	Status string `json:"status"`
	// QueueDepth and QueueCapacity describe the admission queue:
	// requests admitted but not yet collected into a batch, and the
	// bound beyond which admission returns 429.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Inflight counts admitted requests whose responses are pending
	// (queued, under collection, or riding the running batch).
	Inflight int `json:"inflight"`
	// BatchOccupancy is the last launched batch's fill fraction
	// (LastBatchSize/MaxBatch).
	BatchOccupancy float64 `json:"batch_occupancy"`
	// MaxBatch is the configured micro-batch size cap.
	MaxBatch int `json:"max_batch"`
	// BodyLimit is ClassifyBodyLimit of the replica's image length, the
	// bound the router enforces before forwarding; 0 is unreported.
	BodyLimit int64 `json:"body_limit"`
	// ReplyLimit is ClassifyReplyLimit of the replica's class count and
	// capsule dimension, the bound the router reads a classify reply
	// through; 0 is unreported.
	ReplyLimit int64 `json:"reply_limit"`
	// PID identifies the serving process (chaos drills kill it).
	PID int `json:"pid"`
}

// ClassifyBodyLimit bounds a classify body for an image of imgLen
// pixels: 48 bytes a pixel — the longest float64 literal (24
// characters, e.g. -2.2250738585072014e-308) with its comma, a newline
// and 22 bytes of indentation, so any body encoding/json, an indenting
// encoder or another language's JSON library writes for a finite image
// fits — plus 4 KiB for the envelope and whitespace. A reader reads at
// most one byte past it; a longer body gets 413.
func ClassifyBodyLimit(imgLen int) int64 { return 48*int64(imgLen) + 4<<10 }

// ClassifyReplyLimit bounds the classify reply of a model with classes
// capsules of digitDim dimensions: 23 bytes for each of its
// classes·(1+digitDim) float32s — the longest encoding/json writes for
// a finite one is 22 (e.g. -999999900000000000000), plus a comma — 3
// for the brackets and comma of each pose, plus 4 KiB for the class,
// the batch size, the keys and whitespace. A reader reads at most one
// byte past it.
func ClassifyReplyLimit(classes, digitDim int) int64 {
	return 23*int64(classes)*int64(1+digitDim) + 3*int64(classes) + 4<<10
}

// ValidClassifyReply vets a replica's 200 classify body before it
// reaches the client: decodable JSON, a plausible class, non-empty
// finite probabilities. The probabilities decode as float64, so the
// check judges the literals a replica wrote, not their float32
// rounding.
func ValidClassifyReply(body []byte) bool {
	var cr struct {
		Class int       `json:"class"`
		Probs []float64 `json:"probs"`
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		return false
	}
	if len(cr.Probs) == 0 || cr.Class < 0 || cr.Class >= len(cr.Probs) {
		return false
	}
	for _, p := range cr.Probs {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return false
		}
	}
	return true
}
