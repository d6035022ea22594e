package pythia

import (
	"strconv"
	"unicode/utf8"

	"repro/internal/textgen"
)

// LineEncoder renders Examples as NDJSON lines, byte-identical to
// json.Encoder.Encode (HTML escaping on): the same field order and the same
// string escapes — \b \f \n \r \t, \u00XX for other control bytes,
// \u003c \u003e \u0026 for < > &, \ufffd for each invalid UTF-8 byte,
// \u2028 and \u2029 — with null for nil slices and [] for empty ones. It is
// the one NDJSON writer behind every streaming surface (shard files, the
// serving layer, the CLI's -json), so their outputs cannot drift apart.
//
// All rows of one a-query share Dataset and Query, so the encoder keeps the
// encoded {"Dataset":…,"Query":…,"Text": head and reuses it while both are
// unchanged: the a-query text is escaped once per unit instead of once per
// example. Append allocates only when dst (or the memoized head) must grow.
// The zero value is ready to use; a LineEncoder is not safe for concurrent
// use.
type LineEncoder struct {
	dataset, query string
	head           []byte
}

// Append appends ex's JSON encoding plus a trailing newline to dst and
// returns the extended slice.
func (e *LineEncoder) Append(dst []byte, ex Example) []byte {
	if len(e.head) == 0 || ex.Dataset != e.dataset || ex.Query != e.query {
		h := append(e.head[:0], `{"Dataset":`...)
		h = appendJSONString(h, ex.Dataset)
		h = append(h, `,"Query":`...)
		h = appendJSONString(h, ex.Query)
		e.head = append(h, `,"Text":`...)
		e.dataset, e.query = ex.Dataset, ex.Query
	}
	dst = append(dst, e.head...)
	dst = appendJSONString(dst, ex.Text)
	dst = append(dst, `,"IsQuestion":`...)
	dst = strconv.AppendBool(dst, ex.IsQuestion)
	dst = append(dst, `,"Structure":`...)
	dst = strconv.AppendUint(dst, uint64(ex.Structure), 10)
	dst = append(dst, `,"Match":`...)
	dst = strconv.AppendUint(dst, uint64(ex.Match), 10)
	dst = append(dst, `,"Label":`...)
	dst = appendJSONString(dst, ex.Label)
	dst = append(dst, `,"Attrs":`...)
	dst = appendJSONStrings(dst, ex.Attrs)
	dst = append(dst, `,"KeyAttrs":`...)
	dst = appendJSONStrings(dst, ex.KeyAttrs)
	dst = append(dst, `,"Evidence":`...)
	dst = appendJSONCells(dst, ex.Evidence)
	dst = append(dst, `,"Op":`...)
	dst = appendJSONString(dst, ex.Op)
	return append(dst, "}\n"...)
}

// appendJSONStrings encodes a string slice: null when nil, [] when empty.
func appendJSONStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, s)
	}
	return append(dst, ']')
}

// appendJSONCells encodes evidence cells: null when nil, [] when empty.
func appendJSONCells(dst []byte, cells []textgen.Cell) []byte {
	if cells == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, c := range cells {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"Attr":`...)
		dst = appendJSONString(dst, c.Attr)
		dst = append(dst, `,"Value":`...)
		dst = appendJSONString(dst, c.Value)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json copies verbatim with HTML
// escaping on: printable characters other than " \ < > &, plus DEL.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// appendJSONString appends s as a quoted JSON string with exactly
// encoding/json's escapes (see LineEncoder).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
