package transport

import (
	"sync/atomic"

	"remo/internal/model"
)

// Meter wraps a Transport and sums the encoded frame size of every
// accepted Send — in total and, when RegionOf is set, the part whose
// endpoints lie in different regions. Classification needs only labels,
// so plans priced differently are metered by the same geography. Sends
// arrive concurrently from the round engine's worker pool.
type Meter struct {
	Transport
	// RegionOf labels a node with its region (nil: totals only).
	RegionOf func(model.NodeID) string

	bytes, cross atomic.Int64
}

// Send forwards the message and, once accepted, counts its frame.
func (m *Meter) Send(msg Message) error {
	size := int64(FrameSize(msg))
	if err := m.Transport.Send(msg); err != nil {
		return err
	}
	m.bytes.Add(size)
	if m.RegionOf != nil && m.RegionOf(msg.From) != m.RegionOf(msg.To) {
		m.cross.Add(size)
	}
	return nil
}

// Bytes is the total frame bytes accepted so far.
func (m *Meter) Bytes() int64 { return m.bytes.Load() }

// CrossRegionBytes is the part of Bytes sent between regions.
func (m *Meter) CrossRegionBytes() int64 { return m.cross.Load() }
