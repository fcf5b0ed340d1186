// Package recordlog is the one durable append log under every crash-
// surviving file the repo writes: the campaign journal (also a fabric
// coordinator's), the fuzz corpus and the result store. It owns the
// on-disk framing, the checksums, the torn-tail scan and the truncation;
// its clients own only their payload schemas and the checks they make
// against their own header.
//
// On-disk format (all integers little-endian):
//
//	preamble: magic "dmfrlog\x00", uint32 format version
//	header:   one framed record whose payload is the kind tag, a NUL, and
//	          the client's header bytes
//	records:  framed records, appended in one write each
//
// A framed record is a uint32 payload length, the payload, and the CRC-32
// (IEEE) of the payload. A scan stops at the first short, impossible
// (longer than the rest of the file) or bad-checksum frame, which is the
// shape a crash mid-append leaves; Open then truncates the file to the end
// of the last good record, so the next append starts clean.
package recordlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

const (
	// version is the on-disk format version written after the magic.
	version     = 1
	magic       = "dmfrlog\x00"
	preambleLen = len(magic) + 4
	// frameOverhead is the length word plus the trailing checksum.
	frameOverhead = 8
)

// preamble starts every log.
var preamble = binary.LittleEndian.AppendUint32([]byte(magic), version)

// framePool holds the buffers records are framed into, so an append costs
// no allocation beyond the caller's payload.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// appendFrame appends the framed record holding the concatenated parts.
func appendFrame(b []byte, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	start := len(b)
	for _, p := range parts {
		b = append(b, p...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// Log is an open record log. Append, ReadAt, Reset, Size and Close are safe
// for concurrent use.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	hdrEnd int64 // offset just past the header record
	size   int64 // append offset: the end of the last good record
}

// Open opens the log at path for appending. When fresh is set, or the file
// is missing or empty, it starts a new log of the given kind holding header.
// Otherwise it checks the preamble and the kind tag, hands the stored client
// header to check and every intact record to each (either may be nil; an
// error from either fails the open), truncates the file to the end of the
// last intact record, and positions for append.
func Open(path, kind string, header []byte, fresh bool, check func(hdr []byte) error, each func(off int64, rec []byte) error) (*Log, error) {
	flag := os.O_RDWR | os.O_CREATE
	if fresh {
		flag |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f}
	if l.hdrEnd, l.size, err = scan(f, path, kind, check, each); err == nil && l.size == 0 {
		_, err = l.write(preamble, []byte(kind), []byte{0}, header)
		l.hdrEnd = l.size
	} else if err == nil {
		err = f.Truncate(l.size)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Scan reads the log at path without modifying it, handing the client
// header to check and every intact record to each like Open. A missing file
// is an error wrapping fs.ErrNotExist.
func Scan(path, kind string, check func(hdr []byte) error, each func(off int64, rec []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, end, err := scan(f, path, kind, check, each)
	if err == nil && end == 0 {
		err = fmt.Errorf("%s: empty file, not a record log", path)
	}
	return err
}

// scan reads the log in f from the start, returning the offsets just past
// the header record and just past the last intact record, both zero for an
// empty file. The rec slices handed to each are only valid during the call.
func scan(f *os.File, path, kind string, check func([]byte) error, each func(int64, []byte) error) (hdrEnd, end int64, err error) {
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return 0, 0, err
	}
	r := bufio.NewReaderSize(f, 256<<10)
	var pre [preambleLen]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil || string(pre[:len(magic)]) != magic {
		if pre[0] == '{' || bytes.HasPrefix(pre[:], []byte("dmfres\x00")) {
			return 0, 0, fmt.Errorf("%s: format predates the record log; delete the file or regenerate it", path)
		}
		return 0, 0, fmt.Errorf("%s: not a record log", path)
	}
	if v := binary.LittleEndian.Uint32(pre[len(magic):]); v != version {
		return 0, 0, fmt.Errorf("%s: record log format version %d, want %d", path, v, version)
	}
	var buf []byte
	off := int64(preambleLen)
	hdr, ok := next(r, &buf, fi.Size()-off)
	if !ok {
		return 0, 0, fmt.Errorf("%s: torn or corrupt record log header", path)
	}
	off += int64(len(hdr)) + frameOverhead
	tag, hdr, _ := bytes.Cut(hdr, []byte{0})
	if string(tag) != kind {
		return 0, 0, fmt.Errorf("%s: a %q log, not a %q log", path, tag, kind)
	}
	if check != nil {
		if err := check(hdr); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", path, err)
		}
	}
	hdrEnd = off
	for {
		rec, ok := next(r, &buf, fi.Size()-off)
		if !ok {
			return hdrEnd, off, nil
		}
		if each != nil {
			if err := each(off+4, rec); err != nil {
				return 0, 0, fmt.Errorf("%s: %w", path, err)
			}
		}
		off += int64(len(rec)) + frameOverhead
	}
}

// next reads one frame of at most room bytes into *buf and returns its
// payload, or false at a short, impossible or bad-checksum frame.
func next(r *bufio.Reader, buf *[]byte, room int64) ([]byte, bool) {
	var w [4]byte
	if _, err := io.ReadFull(r, w[:]); err != nil {
		return nil, false
	}
	n := int64(binary.LittleEndian.Uint32(w[:]))
	if n+frameOverhead > room {
		return nil, false
	}
	if int64(cap(*buf)) < n+4 {
		*buf = make([]byte, n+4)
	}
	b := (*buf)[:n+4]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, false
	}
	if crc32.ChecksumIEEE(b[:n]) != binary.LittleEndian.Uint32(b[n:]) {
		return nil, false
	}
	return b[:n], true
}

// Append writes one record holding the concatenated parts in a single write
// and returns the offset of its payload. Concurrent appends never
// interleave bytes.
func (l *Log) Append(parts ...[]byte) (int64, error) { return l.write(nil, parts...) }

// write appends prefix and one framed record holding the parts in a single
// write at the end of the log and returns the offset of the record's
// payload.
func (l *Log) write(prefix []byte, parts ...[]byte) (int64, error) {
	bp := framePool.Get().(*[]byte)
	b := appendFrame(append((*bp)[:0], prefix...), parts...)
	l.mu.Lock()
	_, err := l.f.WriteAt(b, l.size)
	off := l.size + int64(len(prefix)) + 4
	if err == nil {
		l.size += int64(len(b))
	}
	l.mu.Unlock()
	*bp = b
	framePool.Put(bp)
	return off, err
}

// ReadAt reads len(p) payload bytes starting at off.
func (l *Log) ReadAt(p []byte, off int64) error {
	_, err := l.f.ReadAt(p, off)
	return err
}

// Reset drops every record, keeping the header.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Truncate(l.hdrEnd); err != nil {
		return err
	}
	l.size = l.hdrEnd
	return nil
}

// Size is the log's length in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Sync commits the log to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Close closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
