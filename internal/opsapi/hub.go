package opsapi

import (
	"context"
	"sync"

	"umon/internal/analyzer"
	"umon/internal/collect"
)

// Hub fans the collector's online event stream out to any number of API
// subscribers without ever blocking the ingest loop. An event's id is its
// emission index. The hub keeps the newest collect.EventLogCap events,
// hands each subscriber a cursor, and wakes blocked subscribers by closing
// a broadcast channel — Publish is O(1) amortized regardless of how many
// followers are parked, and a follower that connects late replays the kept
// backlog before streaming live. A follower less than the bound behind
// loses nothing, which is what lets the e2e smoke assert "streamed events
// == drain summary" exactly.
type Hub struct {
	mu     sync.Mutex
	first  int // id of events[0]: how many events were dropped
	events []analyzer.Event
	keep   int // collect.EventLogCap; a field so that a test can shrink it
	wake   chan struct{}
	closed bool
}

// NewHub returns an open hub.
func NewHub() *Hub {
	return &Hub{keep: collect.EventLogCap, wake: make(chan struct{})}
}

// Publish appends one event and wakes every blocked subscriber. Publishing
// on a closed hub is a no-op.
func (h *Hub) Publish(ev analyzer.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	// Readers copy under the lock, so the backlog is trimmed in place, with
	// an eighth of slack so that the move is paid once per keep/8 events.
	if n := h.keep; len(h.events) >= n+n/8 {
		drop := len(h.events) - (n - 1)
		h.first += drop
		h.events = append(h.events[:0], h.events[drop:]...)
	}
	h.events = append(h.events, ev)
	close(h.wake)
	h.wake = make(chan struct{})
}

// Close marks the stream complete (ingest drained): blocked subscribers
// wake and followers terminate after replaying the remaining backlog.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.closed {
		h.closed = true
		close(h.wake)
	}
}

// Len returns the number of events published so far.
func (h *Hub) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.first + len(h.events)
}

// Event returns the event with the given id if the hub still keeps it,
// and the range [first, next) of ids it keeps.
func (h *Hub) Event(id int) (ev analyzer.Event, first, next int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	first, next = h.first, h.first+len(h.events)
	if id >= first && id < next {
		ev = h.events[id-first]
	}
	return ev, first, next
}

// Snapshot returns a copy of the kept backlog from cursor on, the next
// cursor, and whether the hub is still open; evs[i] has id
// next-len(evs)+i. Never blocks.
func (h *Hub) Snapshot(cursor int) (evs []analyzer.Event, next int, open bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	next = h.first + len(h.events)
	cursor = min(max(cursor, h.first), next)
	return append(evs, h.events[cursor-h.first:]...), next, !h.closed
}

// Wait blocks until the backlog extends past cursor, the hub closes, or
// ctx expires, then returns like Snapshot. A ctx expiry with no news
// returns an empty slice with open=true — the long-poll timeout shape.
func (h *Hub) Wait(ctx context.Context, cursor int) (evs []analyzer.Event, next int, open bool) {
	for {
		h.mu.Lock()
		cursor = min(cursor, h.first+len(h.events))
		ready, wake := cursor < h.first+len(h.events) || h.closed, h.wake
		h.mu.Unlock()
		if ready {
			return h.Snapshot(cursor)
		}
		select {
		case <-ctx.Done():
			return nil, cursor, true
		case <-wake:
		}
	}
}
