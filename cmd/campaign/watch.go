package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dmafault/internal/faultdclient"
)

// Watch mode: tail a running dmafaultd job over its SSE event stream
// (GET /v1/campaigns/{id}/events, via the typed client) and render each
// event as one line. The stream carries cumulative "progress" heartbeats,
// completed "span" records, per-scenario "result" records, and a terminal
// "status" event, after which the server closes the stream.

// watchJob connects to the job's event stream and copies events to w until
// the terminal status arrives (or the stream ends). It returns the final
// status it saw ("" if the stream ended without one).
func watchJob(w io.Writer, jobURL string) (string, error) {
	base, id, err := parseJobURL(jobURL)
	if err != nil {
		return "", err
	}
	c := faultdclient.New(base)
	return c.Watch(context.Background(), id, func(e faultdclient.Event) error {
		_, err := fmt.Fprintf(w, "%-8s %s\n", e.Type, e.Data)
		return err
	})
}

// parseJobURL splits a job URL — /v1/campaigns/{id}, optionally with a
// trailing /events — into the service base and the job ID.
func parseJobURL(jobURL string) (base string, id int, err error) {
	u := strings.TrimRight(jobURL, "/")
	u = strings.TrimSuffix(u, "/events")
	base, rest, ok := strings.Cut(u, "/v1/campaigns/")
	if !ok {
		return "", 0, fmt.Errorf("watch %s: not a job URL (want .../v1/campaigns/<id>)", jobURL)
	}
	id, err = strconv.Atoi(rest)
	if err != nil || id < 1 {
		return "", 0, fmt.Errorf("watch %s: bad job id %q", jobURL, rest)
	}
	return base, id, nil
}
