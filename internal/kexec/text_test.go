package kexec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"dmafault/internal/layout"
)

// Builds whose filler holds a 48 8d 67 run straddling a page boundary: the
// run starts one byte before the boundary in straddleBuildA and two bytes
// before it in straddleBuildB. Page-wise scrubbing must look back across
// the boundary to break them.
const (
	straddleBuildA = 1149  // run at 0xd34fff
	straddleBuildB = 13020 // run at 0x8e2ffe
)

// TestTextImagePinned pins each build's image byte for byte, as the SHA-256
// of the image streamed page by page: any drift in the filler generator, the
// scrub or the plants shows up here before it shows up as moved gadgets.
func TestTextImagePinned(t *testing.T) {
	for _, tc := range []struct {
		build int64
		want  string
	}{
		{DefaultBuild, "abb93416b8587df2757d7452da990247e3f65a40f1c0f3fb7448975b9a9c934d"},
		{2021, "45a27cbf9ba67ea605639298c75ad0c4e6308bcc23dd03c7938c9932ebe4bd7e"},
		{-7, "f7a5ee229be855d3aada76ba1b4d84fdea5c287a36ff4e5d83f05a6416a17710"},
	} {
		key, h := buildKey(tc.build), sha256.New()
		var pg textPage
		for p := uint64(0); p < numTextPages; p++ {
			fillPage(&pg, key, p)
			h.Write(pg[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("build %d: image sha256 %s, want %s", tc.build, got, tc.want)
		}
	}
}

// referenceImage builds a whole image the straightforward way: every filler
// word in order, one sequential scrub of accidental pivots over the whole
// image, then the planted gadgets.
func referenceImage(build int64) []byte {
	b, key := make([]byte, TextSize), buildKey(build)
	for i := 0; i < TextSize; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], fillerWord(key, uint64(i/8)))
	}
	pivot := []byte{opLeaPfx0, opLeaPfx1, opLeaPfx2}
	for i := 0; ; i += len(pivot) {
		j := bytes.Index(b[i:], pivot)
		if j < 0 {
			break
		}
		i += j
		b[i+2] = opNop
	}
	for _, pl := range plants {
		copy(b[pl.off:], pl.code)
	}
	return b
}

// rawRunAt reports whether the unscrubbed filler holds 48 8d 67 at off.
func rawRunAt(build int64, off int) bool {
	var raw [16]byte
	key, w := buildKey(build), uint64(off/8)
	binary.LittleEndian.PutUint64(raw[:], fillerWord(key, w))
	binary.LittleEndian.PutUint64(raw[8:], fillerWord(key, w+1))
	i := off % 8
	return bytes.Equal(raw[i:i+3], []byte{opLeaPfx0, opLeaPfx1, opLeaPfx2})
}

// TestPageFetchMatchesReference: a page built on its own on first fetch
// equals the same bytes of the whole-image reference at every offset within
// 8 bytes of each page boundary and of each planted gadget, including
// builds whose scrub must reach back across a boundary.
func TestPageFetchMatchesReference(t *testing.T) {
	if !rawRunAt(straddleBuildA, 0xd34fff) || !rawRunAt(straddleBuildB, 0x8e2ffe) {
		t.Fatal("straddle builds no longer hold a 48 8d 67 run across a page boundary")
	}
	for _, build := range []int64{DefaultBuild, straddleBuildA, straddleBuildB} {
		ref := referenceImage(build)
		tx := NewText(layout.TextStart, build)
		var near []int
		for b := 0; b <= TextSize; b += layout.PageSize {
			near = append(near, b)
		}
		for _, pl := range plants {
			near = append(near, pl.off, pl.off+len(pl.code))
		}
		bad := 0
		for _, c := range near {
			for off := max(c-8, 0); off < min(c+8, TextSize); off++ {
				if got := tx.fetch(layout.TextStart + layout.Addr(off)); got != ref[off] && bad < 5 {
					t.Errorf("build %d: fetch at %#x = %#x, reference %#x", build, off, got, ref[off])
					bad++
				}
			}
		}
	}
}

// TestFindGadgetMatchesScan checks the memoised lookup against the full
// inventory: for every kind, FindGadget returns the first gadget of that
// kind in Scan order.
func TestFindGadgetMatchesScan(t *testing.T) {
	kinds := []GadgetKind{GadgetPivot, GadgetPopRDI, GadgetPopRAX, GadgetPopRSI, GadgetMovRDIRAX, GadgetHalt}
	for build := int64(0); build < 32; build++ {
		tx := NewText(layout.TextStart, build*7919)
		first := map[GadgetKind]Gadget{}
		for _, g := range tx.Scan() {
			if _, ok := first[g.Kind]; !ok {
				first[g.Kind] = g
			}
		}
		for _, k := range kinds {
			got, ok := tx.FindGadget(k)
			want, wantOK := first[k]
			if ok != wantOK || got != want {
				t.Errorf("build %d %v: FindGadget = %+v, %v; Scan's first = %+v, %v", build*7919, k, got, ok, want, wantOK)
			}
		}
	}
	if _, ok := NewText(layout.TextStart, 1).FindGadget(GadgetHalt + 1); ok {
		t.Error("unknown gadget kind found")
	}
}

// BenchmarkTextSynthesis is one boot's text work for an attack: reading
// the memoised build offsets and fetching the pivot and every chain gadget,
// which builds the pages they sit on.
func BenchmarkTextSynthesis(b *testing.B) {
	l := layout.New(layout.Config{PhysBytes: 16 << 20})
	o, err := ExtractBuildOffsets(NewText(layout.TextStart, DefaultBuild), l.Symbols())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := NewText(layout.TextStart, DefaultBuild)
		if _, err := ExtractBuildOffsets(tx, l.Symbols()); err != nil {
			b.Fatal(err)
		}
		for _, off := range []uint64{o.Pivot, o.PopRDI, o.MovRDIRAX, o.Halt} {
			tx.fetch(layout.TextStart + layout.Addr(off))
		}
	}
}

// BenchmarkExtractBuildOffsets is one cold offline scan of a build: the
// streamed walk that finds the first gadget of every kind, bypassing the
// per-build memo.
func BenchmarkExtractBuildOffsets(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if fg := scanBuild(int64(i)); !fg.found[GadgetHalt] {
			b.Fatal("build has no hlt")
		}
	}
}
