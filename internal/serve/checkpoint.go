package serve

import (
	"errors"

	"pimcapsnet/internal/capsnet"
)

// LoadCheckpoint loads a model checkpoint for serving. Checkpoints
// that fail structural verification (bad magic, truncation, CRC
// mismatch — anything wrapping capsnet.ErrCorruptCheckpoint) are
// counted in m's capsnet_checkpoint_load_rejections_total, so a bad
// model push is visible on the same /metrics endpoint the server
// exposes. m may be nil.
func LoadCheckpoint(path string, m *Metrics) (*capsnet.Network, error) {
	n, err := capsnet.LoadFile(path)
	if err != nil && errors.Is(err, capsnet.ErrCorruptCheckpoint) && m != nil {
		m.CheckpointRejections.Inc()
	}
	return n, err
}
