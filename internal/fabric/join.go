package fabric

import (
	"context"
	"log/slog"
	"time"

	"dmafault/internal/faultd/api"
	"dmafault/internal/faultdclient"
)

// DefaultJoinInterval paces a worker's re-registration with its
// coordinator. Re-joins are upserts that only register the URL — the
// coordinator's heartbeat decides liveness — so the interval is not a
// correctness knob: it just bounds how long a restarted coordinator waits
// before rediscovering the worker.
const DefaultJoinInterval = 2 * time.Second

// JoinLoop announces a worker to a fabric coordinator until ctx ends —
// dmafaultd -join runs this beside its HTTP listener. Failures are logged
// and retried on the next tick: a coordinator that is momentarily down
// (restarting mid-campaign) must not cost the worker its membership.
func JoinLoop(ctx context.Context, coordinator, advertise string, interval time.Duration, log *slog.Logger) {
	if interval <= 0 {
		interval = DefaultJoinInterval
	}
	cl := faultdclient.New(coordinator)
	// Joins retry inline on transient statuses already (client policy);
	// keep the loop's own cadence on top so a long outage re-announces
	// forever rather than giving up.
	t := time.NewTicker(interval)
	defer t.Stop()
	joined := false
	for {
		resp, err := cl.JoinFabric(ctx, api.JoinRequest{URL: advertise})
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return
			}
			log.Warn("fabric join failed", "coordinator", coordinator, "err", err)
			joined = false
		case !joined:
			log.Info("fabric joined", "coordinator", coordinator,
				"advertise", advertise, "workers", resp.Workers)
			joined = true
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}
