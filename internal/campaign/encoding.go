package campaign

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
)

// Canonical bytes, made once. A Result is immutable once the engine, the
// result store or a verified fabric delivery produces it, so its compact
// JSON is encoded once, where the result is born, and every later write
// reuses those bytes: the journal record, the result-store record, the
// results digest, the job document and Summary.JSON.
//
// The ID is not part of what a result holds. A cached record is stored
// ID-blanked and replays under whatever position-derived ID its scenario
// has now, so a result holds the bytes after its ID (`,"kind":...}`) and a
// write splices `{"id":` and the quoted ID in front of them.

// resultFields is Result without its methods: json.Marshal of it is the
// reflection encoding the held bytes must equal.
type resultFields Result

// resultHead opens every encoding: "id" is Result's first field and is
// never omitted.
const resultHead = `{"id":`

// Encode makes r's canonical compact encoding, one json.Marshal of its
// fields, and keeps it for every later write of r. Call it once r is
// final; a field set afterwards needs another Encode. An encoding error (a
// non-finite metric value) keeps nothing, and writes of r then report it.
func (r *Result) Encode() {
	r.rest = nil
	data, err := json.Marshal((*resultFields)(r))
	if err != nil {
		return
	}
	r.holdRest(data)
}

// holdRest keeps data, r's encoding, from the byte after the ID on, if data
// starts with the head r's ID gives (it does for every encoding made by
// json.Marshal).
func (r *Result) holdRest(data []byte) {
	var buf [64]byte
	if head := appendHead(buf[:0], r.ID); bytes.HasPrefix(data, head) {
		r.rest = data[len(head):]
	}
}

// DecodeResult decodes a result from data, the canonical encoding a
// result's own writes produced (a result-store record), and keeps data as
// that encoding: data must not change afterwards. The bytes are trusted,
// not re-encoded, so data must come from this build's writes.
func DecodeResult(data []byte) (*Result, error) {
	r := new(Result)
	if err := json.Unmarshal(data, (*resultFields)(r)); err != nil {
		return nil, err
	}
	r.holdRest(data)
	return r, nil
}

// MarshalJSON writes the held encoding under r's current ID, or encodes r's
// fields if it holds none.
func (r *Result) MarshalJSON() ([]byte, error) {
	head, rest, err := r.JSONParts(make([]byte, 0, len(resultHead)+len(r.ID)+2+len(r.rest)))
	return append(head, rest...), err
}

// JSONParts returns json.Marshal(r)'s bytes in two parts: head, `{"id":`
// and the quoted ID appended to buf, and rest, the bytes r holds after its
// ID. A result holding no encoding is encoded whole into head, with rest
// nil.
func (r *Result) JSONParts(buf []byte) (head, rest []byte, err error) {
	if r.rest == nil {
		data, err := json.Marshal((*resultFields)(r))
		return append(buf, data...), nil, err
	}
	return appendHead(buf, r.ID), r.rest, nil
}

// WriteResults writes json.Marshal(results)'s bytes to w, each result from
// the encoding it holds.
func WriteResults(w io.Writer, results []*Result) error {
	if results == nil {
		_, err := io.WriteString(w, "null")
		return err
	}
	var head []byte
	sep := "["
	for _, r := range results {
		if _, err := io.WriteString(w, sep); err != nil {
			return err
		}
		sep = ","
		if r == nil {
			if _, err := io.WriteString(w, "null"); err != nil {
				return err
			}
			continue
		}
		var rest []byte
		var err error
		if head, rest, err = r.JSONParts(head[:0]); err != nil {
			return err
		}
		if _, err := w.Write(head); err != nil {
			return err
		}
		if _, err := w.Write(rest); err != nil {
			return err
		}
	}
	if sep == "[" {
		_, err := io.WriteString(w, "[]")
		return err
	}
	_, err := io.WriteString(w, "]")
	return err
}

// appendHead appends `{"id":` and id as json.Marshal quotes it.
func appendHead(dst []byte, id string) []byte {
	dst = append(dst, resultHead...)
	for i := 0; i < len(id); i++ {
		if c := id[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// Escapes and non-ASCII: encoding/json's own rules.
			q, _ := json.Marshal(id)
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, id...)
	return append(dst, '"')
}

// jsonIndent is the summary's indent unit.
const jsonIndent = "  "

// indentWriter re-indents a compact JSON document written to it in any
// number of pieces exactly as json.Indent(dst, doc, "", jsonIndent) indents
// the whole: a newline and depth indents before each element and each
// closing bracket, a space after each colon, and nothing inside an empty {}
// or []. String bodies are copied as they are. Without write set it only
// counts the bytes it would write, so one counting pass sizes the buffer
// of the writing pass exactly.
type indentWriter struct {
	buf   []byte
	n     int
	write bool

	depth   int
	opened  bool // an object or array just opened; no element yet indented
	quoted  bool // inside a string
	escaped bool // inside a string, right after a backslash
}

func (w *indentWriter) Write(p []byte) (int, error) {
	for i := 0; i < len(p); {
		if w.quoted {
			j := w.skipString(p, i)
			w.emit(p[i:j]...)
			i = j
			continue
		}
		c := p[i]
		i++
		if w.opened && c != '}' && c != ']' {
			w.opened = false
			w.depth++
			w.newline()
		}
		switch c {
		case '"':
			w.quoted = true
			w.emit(c)
		case '{', '[':
			w.opened = true
			w.emit(c)
		case ',':
			w.emit(c)
			w.newline()
		case ':':
			w.emit(c, ' ')
		case '}', ']':
			if w.opened {
				w.opened = false
			} else {
				w.depth--
				w.newline()
			}
			w.emit(c)
		default:
			w.emit(c)
		}
	}
	return len(p), nil
}

// skipString returns the index just past the quote that closes the string
// p[i:] is inside, or len(p) if the string runs past this piece.
func (w *indentWriter) skipString(p []byte, i int) int {
	for ; i < len(p); i++ {
		switch {
		case w.escaped:
			w.escaped = false
		case p[i] == '\\':
			w.escaped = true
		case p[i] == '"':
			w.quoted = false
			return i + 1
		}
	}
	return i
}

func (w *indentWriter) emit(b ...byte) {
	w.n += len(b)
	if w.write {
		w.buf = append(w.buf, b...)
	}
}

// newlines is a newline and the indents of the first depths, which newline
// slices from.
var newlines = "\n" + strings.Repeat(jsonIndent, 16)

func (w *indentWriter) newline() {
	n := 1 + w.depth*len(jsonIndent)
	w.n += n
	if !w.write {
		return
	}
	if n <= len(newlines) {
		w.buf = append(w.buf, newlines[:n]...)
		return
	}
	w.buf = append(w.buf, '\n')
	for range w.depth {
		w.buf = append(w.buf, jsonIndent...)
	}
}

// indentDoc indents a compact document written by write, calling it twice:
// once to count the indented length, once to write into a buffer of
// exactly that length.
func indentDoc(write func(w io.Writer) error) ([]byte, error) {
	count := &indentWriter{}
	if err := write(count); err != nil {
		return nil, err
	}
	out := &indentWriter{buf: make([]byte, 0, count.n), write: true}
	if err := write(out); err != nil {
		return nil, err
	}
	return out.buf, nil
}
