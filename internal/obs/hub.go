package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// StreamEvent is one live event on a Hub: a typed JSON-encodable payload.
// Types the service emits: "progress" (heartbeat), "span", "result",
// "status" (terminal); the fabric coordinator adds "shard" (a worker job's
// event with shard context) and "fleet" (an api.FleetSnapshot on every
// heartbeat beat — what fabrictop follows).
type StreamEvent struct {
	Type string `json:"type"`
	Data any    `json:"data,omitempty"`
}

// WriteSSE frames one Server-Sent Event with a JSON data payload — the wire
// form of every dmafaultd and fabric event stream.
func WriteSSE(w io.Writer, event string, data any) error {
	b, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	return err
}

// Serve streams the hub to one HTTP client as Server-Sent Events — the one
// loop behind every event endpoint (GET /v1/campaigns/{id}/events and the
// fabric's GET /v1/fabric/events). It writes snapshot() first and again on
// every beat (snapshots are cumulative, so a dropped event costs nothing),
// forwards hub events, and ends after a "status" event. When the hub closes
// — a late subscriber to a finished stream, or one too slow to receive the
// published status — it writes final(), the terminal status, and ends.
func (h *Hub) Serve(w http.ResponseWriter, r *http.Request, beat time.Duration, snapshot, final func() StreamEvent) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	send := func(e StreamEvent) bool {
		if WriteSSE(w, e.Type, e.Data) != nil {
			return false
		}
		fl.Flush()
		return true
	}

	// Subscribe before the first snapshot so no terminal transition can fall
	// between them; a closed hub hands back a closed channel and the loop
	// writes final() straight away. 64 events absorb a burst of span and
	// result events between flushes; a client further behind misses events
	// and resynchronizes from the next snapshot.
	ch, cancel := h.Subscribe(64)
	defer cancel()
	if !send(snapshot()) {
		return
	}
	tick := time.NewTicker(beat)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
			if !send(snapshot()) {
				return
			}
		case e, open := <-ch:
			if !open {
				send(final())
				return
			}
			if !send(e) || e.Type == "status" {
				return
			}
		}
	}
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
