package faultdclient

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// SSE consumption for the service's event streams — a job's
// GET /v1/campaigns/{id}/events and a fabric coordinator's
// GET /v1/fabric/events. The stream is decoded into Events — the raw JSON
// data is handed to the callback, not parsed into a union type, because the
// event vocabulary ("progress", "span", "result", "fuzz", "fleet", "shard",
// "status") grows with the server and a typed client should not reject
// events it predates.

// Event is one decoded Server-Sent Event from a live stream.
type Event struct {
	// Type is the SSE event name: progress, span, result, fuzz, status, ...
	Type string
	// Data is the event's JSON payload, undecoded.
	Data json.RawMessage
}

// Watch follows the job's event stream (see Stream).
func (c *Client) Watch(ctx context.Context, id int, fn func(Event) error) (string, error) {
	return c.Stream(ctx, fmt.Sprintf("/v1/campaigns/%d/events", id), fn)
}

// Stream subscribes to the SSE endpoint at path and calls fn for every
// event until the terminal "status" event (whose status string it returns),
// the stream ends (status "", nil error), fn returns an error (aborts the
// stream with that error), or ctx is cancelled. A status event whose data
// does not decode is a torn stream, not an end: its JSON error is returned.
// Stream does not retry: a broken stream is surfaced to the caller, who can
// re-subscribe — progress and heartbeat events are cumulative, and the
// service replays a finished job's status to a late subscriber, so nothing
// is lost.
func (c *Client) Stream(ctx context.Context, path string, fn func(Event) error) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return "", &APIError{StatusCode: resp.StatusCode, Body: strings.TrimSpace(string(data))}
	}
	sc := bufio.NewScanner(resp.Body)
	// Start at bufio's 4 KiB, enough for a job's events; a longer line (a
	// fleet snapshot) grows the buffer up to the 1 MiB cap.
	sc.Buffer(nil, 1<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if fn != nil {
				if err := fn(Event{Type: event, Data: json.RawMessage(data)}); err != nil {
					return "", err
				}
			}
			if event == "status" {
				var st struct {
					Status string `json:"status"`
				}
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					return "", fmt.Errorf("GET %s: status event: %w", path, err)
				}
				return st.Status, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("GET %s: %w", path, err)
	}
	return "", nil
}
