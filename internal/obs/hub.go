package obs

import "sync"

// StreamEvent is one live event on a Hub: a typed JSON-encodable payload.
// Types the service emits: "progress" (heartbeat), "span", "result",
// "status" (terminal); the fabric coordinator adds "workers" (registry
// heartbeat) and, with the fleet plane armed, "fleet" (an api.FleetSnapshot
// per scrape round — what fabrictop follows).
type StreamEvent struct {
	Type string `json:"type"`
	Data any    `json:"data,omitempty"`
}

// Hub fans StreamEvents out to subscribers — the broadcast plane behind
// GET /v1/campaigns/{id}/events. Publishing never blocks: a subscriber whose
// buffer is full misses that event (SSE clients resynchronize from the next
// heartbeat, which always carries cumulative progress). Close terminates
// every subscription; late subscribers to a closed hub get an immediately
// closed channel. Nil-receiver safe throughout.
type Hub struct {
	mu      sync.Mutex
	subs    map[int]chan StreamEvent
	nextID  int
	closed  bool
	dropped uint64
}

// NewHub builds an open hub.
func NewHub() *Hub { return &Hub{subs: map[int]chan StreamEvent{}} }

// Subscribe registers a buffered subscription. The returned cancel is
// idempotent and must be called when the consumer goes away (client
// disconnect) so the hub stops retaining the channel.
func (h *Hub) Subscribe(buf int) (<-chan StreamEvent, func()) {
	ch := make(chan StreamEvent, max(buf, 1))
	if h == nil {
		close(ch)
		return ch, func() {}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		close(ch)
		return ch, func() {}
	}
	id := h.nextID
	h.nextID++
	h.subs[id] = ch
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			defer h.mu.Unlock()
			if _, ok := h.subs[id]; ok {
				delete(h.subs, id)
				close(ch)
			}
		})
	}
	return ch, cancel
}

// Publish broadcasts one event, dropping it for any subscriber whose buffer
// is full.
func (h *Hub) Publish(e StreamEvent) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for _, ch := range h.subs {
		select {
		case ch <- e:
		default:
			h.dropped++
		}
	}
}

// Close publishes nothing further and closes every subscriber channel.
func (h *Hub) Close() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for id, ch := range h.subs {
		delete(h.subs, id)
		close(ch)
	}
}

// Subscribers reports the current subscription count (tests).
func (h *Hub) Subscribers() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Dropped reports how many per-subscriber events were shed to full buffers.
func (h *Hub) Dropped() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}
