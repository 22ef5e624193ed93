package opsapi

import "sync"

// Hub wakes the API's event readers — long-polls and ?follow= streams —
// when the collector emits, without ever blocking the ingest loop. It keeps
// no events: readers take them from the collector's published snapshot
// (Snapshot.EventLog), where an event's id is its emission index. The daemon
// calls Notify from collect.Config.OnEvent, which runs after the event is
// published, and Close once ingest has drained. Notify closes a broadcast
// channel, so it costs the same however many readers are parked.
type Hub struct {
	mu     sync.Mutex
	wake   chan struct{}
	closed bool
}

// NewHub returns an open hub.
func NewHub() *Hub {
	return &Hub{wake: make(chan struct{})}
}

// Notify wakes every blocked reader. Notifying a closed hub is a no-op.
func (h *Hub) Notify() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.closed {
		close(h.wake)
		h.wake = make(chan struct{})
	}
}

// Close marks the stream complete (ingest drained): blocked readers wake,
// and followers terminate after streaming the rest of the log.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.closed {
		h.closed = true
		close(h.wake)
	}
}

// state returns the channel the next Notify or Close closes, and whether
// the hub is closed. A reader takes it before it reads the snapshot, so an
// emission that snapshot misses still wakes it.
func (h *Hub) state() (wake <-chan struct{}, closed bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.wake, h.closed
}
