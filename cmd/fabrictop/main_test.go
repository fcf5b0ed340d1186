package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dmafault/internal/faultd/api"
)

// TestRenderFleetGolden renders the fabric package's golden /v1/fleet
// document, so a worker row that goes missing, or a state that renders
// wrong, fails here rather than on an operator's screen. The snapshot holds
// a stale worker with a lease out and a dead worker that never answered a
// scrape.
func TestRenderFleetGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "fabric", "testdata", "fleet_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var fs api.FleetSnapshot
	if err := json.Unmarshal(data, &fs); err != nil {
		t.Fatal(err)
	}
	want := "FABRIC FLEET   campaign 8/16 scenarios, 2/4 shards (50%)\n" +
		"\n" +
		"WORKER                       STATE  LEASES SHARDS  SCENES  CACHE%   QWAIT(s)   EXEC(s)    PUB(s)   EWMA(s)    SCEN/S  READY\n" +
		"w1:8077                      up     1           2       8     38%      0.250     4.000     0.500     2.000       2.5  stale\n" +
		"w2:8077                      down   0           0       0       -      0.000     0.000     0.000     0.000       0.0     no\n"
	if got := render(&fs, false); got != want {
		t.Errorf("render drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}
