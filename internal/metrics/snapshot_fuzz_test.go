package metrics

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSnapshotMerge: a fabric coordinator decodes each worker's /v1/metrics
// JSON into a Snapshot, merges every retained snapshot into a fresh one and
// renders the result for each /v1/fleet request. Those bytes come from
// another process, so the decode, merge and render must not panic on any
// input, and the fleet view's determinism must hold: two renderings of the
// same retained snapshot — each merged into an empty snapshot, beside a
// second worker reporting the same families — are byte-identical, and
// merging never alters the retained source. The merged snapshot must also
// survive the /v1/fleet encoding: it marshals to JSON, and decoding that
// renders the same text. The seed is a real dmafaultd snapshot taken after a
// ladder campaign (testdata/worker_snapshot.json).
func FuzzSnapshotMerge(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "worker_snapshot.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"families":[{"name":"h","kind":"histogram","buckets":[1,2],` +
		`"samples":[{"bucket_counts":[1,2,3,4],"sum":1.5,"count":2}]},` +
		`{"name":"h","kind":"counter","samples":[{"value":1}]}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"families":[{"name":"c","kind":"counter","samples":[{"value":1e308}]}]}`))
	f.Add([]byte(`{"families":[{"name":"h","kind":"histogram","buckets":[1],` +
		`"samples":[{"bucket_counts":[1,1],"sum":-1.5e308,"count":2}]},` +
		`{"name":"g","kind":"gauge","samples":[{"value":1}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var in Snapshot
		if json.Unmarshal(data, &in) != nil {
			return
		}
		before := in.Text()
		merged := func() *Snapshot {
			// Merge errors (a kind or bucket clash, an overflow) are served
			// as far as the merge got, as Registry.Fleet does.
			var s Snapshot
			_ = s.Merge(&in)
			_ = s.Merge(&in)
			return &s
		}
		if a, b := merged().Text(), merged().Text(); !bytes.Equal(a, b) {
			t.Fatalf("two renderings of one snapshot differ:\n%s\n---\n%s", a, b)
		}
		m := merged()
		data, err := m.JSON()
		if err != nil {
			t.Fatalf("merged snapshot does not encode: %v", err)
		}
		var back Snapshot
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("merged snapshot's JSON does not decode: %v", err)
		}
		if a, b := m.Text(), back.Text(); !bytes.Equal(a, b) {
			t.Fatalf("JSON round trip changed the merged snapshot:\n%s\n---\n%s", a, b)
		}
		if after := in.Text(); !bytes.Equal(after, before) {
			t.Fatalf("merging altered its source:\n%s\n---\n%s", before, after)
		}
	})
}
