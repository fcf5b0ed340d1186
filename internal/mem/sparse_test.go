package mem

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dmafault/internal/layout"
)

func TestNewRejectsOversizedMemory(t *testing.T) {
	l := layout.New(layout.Config{PhysBytes: 16 << 20})
	l.PhysBytes = 1 << 40
	if _, err := New(Config{Layout: l}); err == nil {
		t.Error("1 TiB of physical memory accepted")
	}
}

// fuzzMemBytes keeps the fuzzed machine small enough that every execution
// can compare all of it against the reference.
const fuzzMemBytes = 8 << 20

// FuzzMemory runs a decoded sequence of byte accesses on a sparse Memory and
// on a dense reference slice, and requires both to hold the same bytes after
// every step. Each operation is 8 input bytes: op, fill byte, a 16-bit page
// index, a 16-bit in-page offset and a 16-bit length, so ranges straddle
// page boundaries whenever offset+length passes a page.
func FuzzMemory(f *testing.F) {
	op := func(kind, v byte, page, off, n uint16) []byte {
		b := []byte{kind, v, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint16(b[2:], page)
		binary.LittleEndian.PutUint16(b[4:], off)
		binary.LittleEndian.PutUint16(b[6:], n)
		return b
	}
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	f.Add(seq(op(0, 0xaa, 3, 4090, 12), op(1, 0, 3, 4088, 20)))                          // straddling write, read
	f.Add(seq(op(4, 0, 5, 0, 8192), op(1, 0, 5, 0, 4096)))                               // zero fill of unbacked frames
	f.Add(seq(op(2, 0x11, 7, 100, 300), op(4, 0, 7, 0, 4096), op(3, 0, 7, 0, 4096)))     // zero fill over a backed frame
	f.Add(seq(op(4, 0x5a, 1, 4000, 200), op(4, 0, 1, 4050, 9000), op(1, 0, 1, 0, 9000))) // nonzero then zero fill
	f.Add(seq(op(0, 0x01, 0, 0, 1), op(2, 0x02, 2047, 4095, 1), op(3, 0, 2047, 4000, 96)))

	f.Fuzz(func(t *testing.T, in []byte) {
		l := layout.New(layout.Config{PhysBytes: fuzzMemBytes})
		m, err := New(Config{Layout: l})
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]byte, fuzzMemBytes)
		for ; len(in) >= 8; in = in[8:] {
			kind, v := in[0]%5, in[1]
			pa := uint64(binary.LittleEndian.Uint16(in[2:])%(fuzzMemBytes/layout.PageSize))*layout.PageSize +
				uint64(binary.LittleEndian.Uint16(in[4:])%layout.PageSize)
			n := min(uint64(binary.LittleEndian.Uint16(in[6:])), fuzzMemBytes-pa)
			kva := l.PhysToKVA(pa)
			unbacked := map[uint64]bool{}
			for p := pa / layout.PageSize; p*layout.PageSize < pa+n; p++ {
				if m.frames[p] == nil {
					unbacked[p] = true
				}
			}
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = v + byte(i)
			}
			switch kind {
			case 0:
				err = m.Write(kva, buf)
				copy(ref[pa:], buf)
			case 1:
				err = m.Read(kva, buf)
			case 2:
				err = m.WritePhys(pa, buf)
				copy(ref[pa:], buf)
			case 3:
				err = m.ReadPhys(pa, buf)
			case 4:
				err = m.Memset(kva, v, n)
				for i := range ref[pa : pa+n] {
					ref[pa+uint64(i)] = v
				}
			}
			if err != nil {
				t.Fatalf("op %d at %#x+%d: %v", kind, pa, n, err)
			}
			if (kind == 1 || kind == 3) && !bytes.Equal(buf, ref[pa:pa+n]) {
				t.Fatalf("op %d at %#x+%d read bytes that differ from the dense reference", kind, pa, n)
			}
			if kind == 4 && v == 0 {
				for p := range unbacked {
					if m.frames[p] != nil {
						t.Fatalf("zero Memset at %#x+%d backed frame %d", pa, n, p)
					}
				}
			}
			// The op can only have changed the frames it spans; compare them
			// and one frame either side after every step.
			lo := (pa/layout.PageSize - min(pa/layout.PageSize, 1)) * layout.PageSize
			hi := min((pa+n)/layout.PageSize+2, fuzzMemBytes/layout.PageSize) * layout.PageSize
			equalToReference(t, m, ref, lo, hi)
		}
		equalToReference(t, m, ref, 0, fuzzMemBytes)
	})
}

// equalToReference fails the test unless physical memory [lo, hi) holds
// the reference's bytes.
func equalToReference(t *testing.T, m *Memory, ref []byte, lo, hi uint64) {
	t.Helper()
	got := make([]byte, hi-lo)
	if err := m.ReadPhys(lo, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref[lo:hi]) {
		t.Fatalf("physical memory [%#x, %#x) differs from the dense reference", lo, hi)
	}
}

func BenchmarkNew(b *testing.B) {
	l := layout.New(layout.Config{KASLR: true, Seed: 1, PhysBytes: 128 << 20})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(Config{Layout: l, CPUs: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteReadPage stores and loads one page through the CPU path
// into a frame that is already backed.
func BenchmarkWriteReadPage(b *testing.B) {
	l := layout.New(layout.Config{KASLR: true, Seed: 1, PhysBytes: 16 << 20})
	m, err := New(Config{Layout: l, CPUs: 1})
	if err != nil {
		b.Fatal(err)
	}
	a := l.PFNToKVA(2000)
	page := make([]byte, layout.PageSize)
	b.SetBytes(2 * layout.PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		page[0] = byte(i)
		if err := m.Write(a, page); err != nil {
			b.Fatal(err)
		}
		if err := m.Read(a, page); err != nil {
			b.Fatal(err)
		}
	}
}
