package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"dmafault/internal/attacks"
	"dmafault/internal/core"
	"dmafault/internal/netstack"
	"dmafault/internal/trace"
)

// realTraceJSONL runs the §5.4 attack on a traced boot and exports the ring:
// every event kind the attack path emits, with real addresses and notes.
func realTraceJSONL(f *testing.F) []byte {
	f.Helper()
	sys, err := core.New(core.WithSeed(2021), core.WithTracing(256))
	if err != nil {
		f.Fatal(err)
	}
	nic, err := sys.AddNIC(1, netstack.DriverI40E, 0)
	if err != nil {
		f.Fatal(err)
	}
	attacks.RunPoisonedTX(sys, nic)
	var buf bytes.Buffer
	if err := sys.Trace().WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	if buf.Len() == 0 {
		f.Fatal("traced attack exported no events")
	}
	return buf.Bytes()
}

// FuzzReadJSONL: shipped traces come from outside the process, so
// ReadJSONL must not panic on any input, and whatever it accepts must
// survive a WriteJSONL→ReadJSONL round trip unchanged — the export is
// documented as lossless.
func FuzzReadJSONL(f *testing.F) {
	exported := realTraceJSONL(f)
	f.Add(exported)
	f.Add(exported[:len(exported)/2]) // torn mid-record
	f.Add([]byte(`{"t_nanos":1,"kind":"escalation","dev":1,"addr":2,"aux":3,"note":"pwn"}` + "\n"))
	f.Add([]byte(`{"t_nanos":18446744073709551615,"kind":"dma-map","dev":65535,"addr":0,"aux":0}`))
	f.Add([]byte(`{"kind":"no-such-kind"}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := trace.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, evs); err != nil {
			t.Fatalf("WriteJSONL of accepted events: %v", err)
		}
		again, err := trace.ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-reading exported events: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(evs, again) {
			t.Fatalf("round trip changed the events:\n%+v\nvs\n%+v", evs, again)
		}
	})
}
