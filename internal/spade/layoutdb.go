// Package spade implements SPADE — Sub-Page Analysis for DMA Exposure
// (§4.1 of the paper): a static analyzer that starts from dma_map* calls,
// backtracks the mapped variable through declarations, assignments and call
// sites, and reports which data structures (and which callback pointers) the
// mapping exposes to the device.
//
// The original is ~2000 lines of Perl gluing Cscope (code cross-referencing)
// and pahole (DWARF struct layouts). This implementation parses the driver
// sources with cminor and provides both capabilities natively: an Xref index
// and a LayoutDB computing x86-64 struct layouts.
package spade

import (
	"fmt"
	"sort"

	"dmafault/internal/cminor"
)

// LayoutDB is the pahole-equivalent: struct sizes, field offsets, and
// callback-pointer inventories, computed from parsed definitions with x86-64
// ABI rules.
type LayoutDB struct {
	structs map[string]*cminor.StructDef
	layouts map[string]*StructLayout
}

// StructLayout is a computed memory layout.
type StructLayout struct {
	Name   string
	Size   uint64
	Align  uint64
	Fields []FieldLayout
}

// FieldLayout is one field's placement.
type FieldLayout struct {
	Name   string
	Offset uint64
	Size   uint64
	Type   *cminor.Type
}

// baseSizes are x86-64 scalar sizes (alignment = size).
var baseSizes = map[string]uint64{
	"void": 1, "char": 1, "bool": 1,
	"u8": 1, "s8": 1, "uint8_t": 1,
	"u16": 2, "s16": 2, "short": 2, "uint16_t": 2, "short int": 2,
	"int": 4, "u32": 4, "s32": 4, "unsigned": 4, "uint32_t": 4, "gfp_t": 4,
	"float": 4, "irqreturn_t": 4, "netdev_tx_t": 4,
	"long": 8, "u64": 8, "s64": 8, "uint64_t": 8, "size_t": 8, "ssize_t": 8,
	"double": 8, "dma_addr_t": 8, "phys_addr_t": 8, "long long": 8,
	"unsigned long": 8, "long int": 8,
}

// NewLayoutDB indexes the struct definitions of a set of files.
func NewLayoutDB(files []*cminor.File) *LayoutDB {
	db := &LayoutDB{structs: make(map[string]*cminor.StructDef), layouts: make(map[string]*StructLayout)}
	for _, f := range files {
		for _, sd := range f.Structs {
			db.structs[sd.Name] = sd
		}
	}
	return db
}

// Names returns all known struct names, sorted.
func (db *LayoutDB) Names() []string {
	out := make([]string, 0, len(db.structs))
	for n := range db.structs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (db *LayoutDB) sizeAlign(t *cminor.Type, busy map[string]bool) (uint64, uint64, error) {
	if t == nil {
		return 0, 1, fmt.Errorf("spade: nil type")
	}
	switch t.Kind {
	case cminor.TypePtr, cminor.TypeFuncPtr:
		return 8, 8, nil
	case cminor.TypeBase:
		if s, ok := baseSizes[t.Name]; ok {
			return s, s, nil
		}
		// Unknown typedef: assume register-sized (pahole would know; we
		// stay conservative).
		return 8, 8, nil
	case cminor.TypeArray:
		es, ea, err := db.sizeAlign(t.Elem, busy)
		if err != nil {
			return 0, 1, err
		}
		return es * uint64(t.Len), ea, nil
	case cminor.TypeStruct:
		l, err := db.layoutLocked(t.Name, busy)
		if err != nil {
			return 0, 1, err
		}
		return l.Size, l.Align, nil
	default:
		return 0, 1, fmt.Errorf("spade: unknown type kind %d", t.Kind)
	}
}

// Layout computes (and caches) a struct's layout.
func (db *LayoutDB) Layout(name string) (*StructLayout, error) {
	return db.layoutLocked(name, map[string]bool{})
}

func (db *LayoutDB) layoutLocked(name string, busy map[string]bool) (*StructLayout, error) {
	if l, ok := db.layouts[name]; ok {
		return l, nil
	}
	if busy[name] {
		return nil, fmt.Errorf("spade: recursive embedding of struct %s", name)
	}
	sd, ok := db.structs[name]
	if !ok {
		return nil, fmt.Errorf("spade: unknown struct %s", name)
	}
	busy[name] = true
	defer delete(busy, name)
	l := &StructLayout{Name: name, Align: 1}
	off := uint64(0)
	for _, f := range sd.Fields {
		s, a, err := db.sizeAlign(f.Type, busy)
		if err != nil {
			return nil, fmt.Errorf("spade: struct %s field %s: %w", name, f.Name, err)
		}
		off = (off + a - 1) &^ (a - 1)
		l.Fields = append(l.Fields, FieldLayout{Name: f.Name, Offset: off, Size: s, Type: f.Type})
		off += s
		if a > l.Align {
			l.Align = a
		}
	}
	l.Size = (off + l.Align - 1) &^ (l.Align - 1)
	if l.Size == 0 {
		l.Size = l.Align
	}
	db.layouts[name] = l
	return l, nil
}

// DirectCallbacks counts function-pointer fields of the struct, including
// those of embedded (by-value) structs: callbacks that live on the mapped
// page itself.
func (db *LayoutDB) DirectCallbacks(name string) int {
	return db.directCallbacks(name, map[string]bool{})
}

func (db *LayoutDB) directCallbacks(name string, busy map[string]bool) int {
	if busy[name] {
		return 0
	}
	busy[name] = true
	sd, ok := db.structs[name]
	if !ok {
		return 0
	}
	n := 0
	for _, f := range sd.Fields {
		n += db.countDirectInType(f.Type, busy)
	}
	return n
}

func (db *LayoutDB) countDirectInType(t *cminor.Type, busy map[string]bool) int {
	switch t.Kind {
	case cminor.TypeFuncPtr:
		return 1
	case cminor.TypeStruct:
		return db.directCallbacks(t.Name, busy)
	case cminor.TypeArray:
		return t.Len * db.countDirectInType(t.Elem, map[string]bool{})
	default:
		return 0
	}
}

// SpoofableCallbacks counts callbacks reachable through struct-pointer
// fields: "replacing this pointer to indicate an instance of the structure
// created by the device, with its own callback pointers" (§4.1.2 fn. 3).
// Each struct type is counted once along a path (cycle-safe).
func (db *LayoutDB) SpoofableCallbacks(name string) int {
	visited := map[string]bool{name: true}
	return db.spoofable(name, visited)
}

func (db *LayoutDB) spoofable(name string, visited map[string]bool) int {
	sd, ok := db.structs[name]
	if !ok {
		return 0
	}
	n := 0
	for _, f := range sd.Fields {
		t := f.Type
		for t != nil && t.Kind == cminor.TypeArray {
			t = t.Elem
		}
		if t == nil || t.Kind != cminor.TypePtr {
			continue
		}
		p := t.Elem
		if p == nil || p.Kind != cminor.TypeStruct || visited[p.Name] {
			continue
		}
		visited[p.Name] = true
		n += db.DirectCallbacks(p.Name) + db.spoofable(p.Name, visited)
	}
	// Embedded structs also contribute their pointers.
	for _, f := range sd.Fields {
		if f.Type.Kind == cminor.TypeStruct && !visited["!"+f.Type.Name] {
			visited["!"+f.Type.Name] = true
			n += db.spoofable(f.Type.Name, visited)
		}
	}
	return n
}

// FieldOffset returns the offset of a (possibly nested, dot-separated) field.
func (db *LayoutDB) FieldOffset(structName, field string) (uint64, error) {
	l, err := db.Layout(structName)
	if err != nil {
		return 0, err
	}
	for _, f := range l.Fields {
		if f.Name == field {
			return f.Offset, nil
		}
	}
	return 0, fmt.Errorf("spade: struct %s has no field %s", structName, field)
}
