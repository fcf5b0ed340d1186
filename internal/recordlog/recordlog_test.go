package recordlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type record struct {
	off int64
	rec []byte
}

// openCollect opens path like a resuming client and returns the records the
// scan handed back.
func openCollect(path, kind string) (*Log, []record, error) {
	var recs []record
	l, err := Open(path, kind, nil, false, nil, func(off int64, rec []byte) error {
		recs = append(recs, record{off, bytes.Clone(rec)})
		return nil
	})
	return l, recs, err
}

// build writes a log of the given kind holding header and payloads and
// returns its bytes.
func build(t testing.TB, path, kind string, header []byte, payloads ...string) []byte {
	t.Helper()
	l, err := Open(path, kind, header, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	build(t, path, "test", []byte(`{"h":1}`), "a", "", "ccc")
	var hdr []byte
	var recs []record
	l, err := Open(path, "test", []byte("ignored on reopen"), false,
		func(h []byte) error { hdr = bytes.Clone(h); return nil },
		func(off int64, rec []byte) error {
			recs = append(recs, record{off, bytes.Clone(rec)})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if string(hdr) != `{"h":1}` {
		t.Fatalf("header %q", hdr)
	}
	var got []string
	for _, r := range recs {
		p := make([]byte, len(r.rec))
		if err := l.ReadAt(p, r.off); err != nil || !bytes.Equal(p, r.rec) {
			t.Fatalf("ReadAt(%d) = %q, %v; scan saw %q", r.off, p, err, r.rec)
		}
		got = append(got, string(r.rec))
	}
	if strings.Join(got, ",") != "a,,ccc" {
		t.Fatalf("records %q", got)
	}
	fi, _ := os.Stat(path)
	if l.Size() != fi.Size() {
		t.Fatalf("Size %d, file is %d bytes", l.Size(), fi.Size())
	}
}

// Open and Scan reject a log written by another client, naming both kinds.
func TestKindMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	build(t, path, "campaign-journal", nil, "x")
	_, err := Open(path, "result-store", nil, false, nil, nil)
	if err == nil || !strings.Contains(err.Error(), `"campaign-journal"`) || !strings.Contains(err.Error(), `"result-store"`) {
		t.Fatalf("opening a journal as a result store: err=%v", err)
	}
	if err := Scan(path, "result-store", nil, nil); err == nil {
		t.Fatal("Scan accepted the wrong kind")
	}
}

// Files written before the record log existed fail with an error that names
// the path and says why, instead of being misread or overwritten.
func TestLegacyFormatsRejected(t *testing.T) {
	legacy := map[string]string{
		"journal":   `{"v":1,"scenarios":2,"hash":"deadbeefdeadbeef","set":[]}` + "\n" + `{"index":0,"result":{}}` + "\n",
		"state log": `{"v":1,"scenarios":2,"hash":"deadbeefdeadbeef","shard_size":4}` + "\n",
		"corpus":    `{"v":1,"kind":"fuzz-corpus","key_version":"dmafault-engine-v2"}` + "\n",
		"store":     "dmfres\x00\x01\x12\x00\x00\x00dmafault-engine-v2",
	}
	for name, content := range legacy {
		path := filepath.Join(t.TempDir(), "old")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, oerr := Open(path, "any", nil, false, nil, nil)
		serr := Scan(path, "any", nil, nil)
		for _, err := range []error{oerr, serr} {
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "predates the record log") {
				t.Errorf("%s: err=%v", name, err)
			}
		}
		if data, _ := os.ReadFile(path); string(data) != content {
			t.Errorf("%s: a failed open modified the file", name)
		}
	}
}

// Scan of a missing file reports fs.ErrNotExist; Open of one, or of an
// empty file, creates a fresh log.
func TestMissingAndEmpty(t *testing.T) {
	dir := t.TempDir()
	if err := Scan(filepath.Join(dir, "none"), "k", nil, nil); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Scan of a missing file: %v", err)
	}
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "none"), empty} {
		l, err := Open(path, "k", []byte("h"), false, func([]byte) error {
			return errors.New("a fresh log must not be checked")
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		if err := Scan(path, "k", func(h []byte) error {
			if string(h) != "h" {
				return fmt.Errorf("header %q", h)
			}
			return nil
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// An error from check or each fails the open and leaves the file alone.
func TestClientErrorsFailOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	data := build(t, path, "k", nil, "a", "b")
	bad := errors.New("bad")
	if _, err := Open(path, "k", nil, false, func([]byte) error { return bad }, nil); !errors.Is(err, bad) {
		t.Fatalf("check error: %v", err)
	}
	if _, err := Open(path, "k", nil, false, nil, func(int64, []byte) error { return bad }); !errors.Is(err, bad) {
		t.Fatalf("each error: %v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
		t.Fatal("a failed open modified the file")
	}
}

// Reset keeps the header and drops every record.
func TestReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	hdrOnly := build(t, path, "k", []byte("h"))
	build(t, path, "k", []byte("h"), "a", "b")
	l, _, err := openCollect(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, hdrOnly) {
		t.Fatalf("after Reset: %q, want %q", got, hdrOnly)
	}
	if _, err := l.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, recs, err := openCollect(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if len(recs) != 1 || string(recs[0].rec) != "c" {
		t.Fatalf("after Reset and Append: %v", recs)
	}
}

// FuzzOpen drives the one decoder with arbitrary file contents. Open never
// panics; every record it hands back re-frames to the exact bytes at its
// offset; the file is truncated to the end of the last good record; and an
// append followed by a reopen returns the old records plus the new one.
func FuzzOpen(f *testing.F) {
	dir := f.TempDir()
	var payloads []string
	for n := 0; n <= 3; n++ {
		valid := build(f, filepath.Join(dir, "seed"), "fuzz", []byte(`{"seed":true}`), payloads...)
		f.Add(valid)
		if n > 0 {
			f.Add(valid[:len(valid)-3])                                             // torn tail
			f.Add(append(bytes.Clone(valid), 0xff, 0x00))                           // torn length word
			f.Add(append(valid[:len(valid)-1:len(valid)-1], valid[len(valid)-1]^1)) // flipped CRC byte
		}
		payloads = append(payloads, fmt.Sprintf(`{"record":%d}`, n))
	}
	f.Add([]byte(`{"v":1}` + "\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := openCollect(path, "fuzz")
		if err != nil {
			return
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 && !bytes.Equal(got, data[:len(got)]) {
			t.Fatal("open rewrote bytes it kept")
		}
		end := int64(preambleLen) + frameOverhead + int64(binary.LittleEndian.Uint32(got[preambleLen:]))
		for _, r := range recs {
			if r.off != end+4 {
				t.Fatalf("record at %d, previous record ended at %d", r.off, end)
			}
			if frame := appendFrame(nil, r.rec); !bytes.Equal(got[r.off-4:r.off-4+int64(len(frame))], frame) {
				t.Fatalf("record at %d does not re-frame to the bytes on disk", r.off)
			}
			end = r.off + int64(len(r.rec)) + 4
		}
		if int64(len(got)) != end || l.Size() != end {
			t.Fatalf("file is %d bytes, Size %d, last good record ends at %d", len(got), l.Size(), end)
		}
		if _, err := l.Append([]byte("new")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l, again, err := openCollect(path, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		want := append(recs, record{end + 4, []byte("new")})
		if len(again) != len(want) {
			t.Fatalf("reopen after append: %d records, want %d", len(again), len(want))
		}
		for i := range want {
			if again[i].off != want[i].off || !bytes.Equal(again[i].rec, want[i].rec) {
				t.Fatalf("record %d after reopen: %d %q, want %d %q", i, again[i].off, again[i].rec, want[i].off, want[i].rec)
			}
		}
	})
}
