package fabric

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"dmafault/internal/faultd/api"
	"dmafault/internal/obs"
)

// Coordinator HTTP surface: the routes behind Handler. Workers register
// through POST /v1/fabric/join, operators read the registry through
// GET /v1/fleet and follow the merged shard stream. All of it is
// supervision-plane — none of it can change a campaign's results.

// handleJoin registers a worker URL; the heartbeat decides when it is up.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var req api.JoinRequest
	if err := json.Unmarshal(data, &req); err != nil {
		http.Error(w, "parse join request: "+err.Error(), http.StatusBadRequest)
		return
	}
	u, err := url.Parse(req.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		http.Error(w, fmt.Sprintf("join: %q is not an absolute URL", req.URL), http.StatusBadRequest)
		return
	}
	n := c.reg.Join(req.URL)
	c.log.Info("fabric worker joined", "worker", req.URL, "workers", n)
	writeJSON(w, http.StatusOK, api.JoinResponse{Accepted: true, Workers: n})
}

// handleMetrics renders the fabric families (the fleet view's scrape
// counters among them).
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap, err := c.m.reg.Gather()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(snap.Text())
}

// handleFleet serves the typed fleet snapshot. The indented encoding is the
// document the golden tests pin; two requests against identical fleet state
// return byte-identical bodies.
func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	data, err := json.MarshalIndent(c.Fleet(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// handleEvents streams the merged fabric event stream as Server-Sent
// Events: re-published worker job events with shard context, coordinator
// result events, a "fleet" beat carrying the /v1/fleet document on every
// heartbeat interval (cumulative, so a dropped event costs nothing), and
// the terminal "status" — also to subscribers that arrive after the
// campaign ended.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	if c.cfg.Hub == nil {
		http.Error(w, "fabric: event streaming disabled (no hub)", http.StatusNotFound)
		return
	}
	c.cfg.Hub.Serve(w, r, c.cfg.heartbeat(),
		func() obs.StreamEvent { return obs.StreamEvent{Type: "fleet", Data: c.Fleet()} },
		func() obs.StreamEvent {
			c.mu.Lock()
			defer c.mu.Unlock()
			return statusEvent(c.status)
		})
}

// PublishStatus records the campaign's terminal status, broadcasts it on the
// hub, and closes the hub — called by the coordinator's owner once Run
// returns, so SSE followers see the campaign end. Subscribers that arrive
// later get the recorded status from handleEvents.
func (c *Coordinator) PublishStatus(status string) {
	if c.cfg.Hub == nil {
		return
	}
	c.mu.Lock()
	c.status = status
	c.mu.Unlock()
	c.cfg.Hub.Publish(statusEvent(status))
	c.cfg.Hub.Close()
}

// statusEvent is the fabric stream's terminal event.
func statusEvent(status string) obs.StreamEvent {
	return obs.StreamEvent{Type: "status", Data: map[string]string{"status": status}}
}

// writeJSON marshals one response body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
