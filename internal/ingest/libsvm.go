package ingest

import (
	"bytes"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// parseLibSVMChunk parses one chunk of LibSVM/SVMLight lines: "label
// idx:value idx:value ...". Blank lines and lines starting with '#' are
// skipped. Indices may be 0- or 1-based and are used as-is, as the
// single-threaded parser this one replaced (now a test referee) used them.
//
// The chunk's buffer belongs to this call and is never written again, so
// it is read in place as a string: lines and fields are substrings of it,
// split on unicode.IsSpace exactly as strings.Fields splits them. A field
// of ASCII digits, a colon and a short plain decimal, ended by an ASCII
// space, is scanned in one pass (scanPair); any other field goes through
// nextField, parseIndex and parseValue32, which decide it as strconv does.
func parseLibSVMChunk(c rawChunk, opts Options) (*Block, error) {
	b := newBlock(c, bytes.Count(c.data, []byte{':'}))
	s := unsafe.String(unsafe.SliceData(c.data), len(c.data))
	line := c.firstLine - 1
	for len(s) > 0 {
		line++
		var text string
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			text, s = s[:i], s[i+1:]
		} else {
			text, s = s, ""
		}
		rest := skipASCIISpace(text)
		label, n, ok := scanDecimal(rest)
		if ok && endsField(rest, n) {
			rest = rest[n:]
		} else {
			var first string
			if first, rest = nextField(rest); first == "" || first[0] == '#' {
				continue
			}
			var err error
			if label, err = parseValue32(first); err != nil {
				return nil, fmt.Errorf("ingest: line %d: bad label %q: %w", line, first, err)
			}
		}
		if err := checkLabel(label, opts.NumClass, line); err != nil {
			return nil, err
		}
		rowStart := len(b.Feat)
		for {
			if rest = skipASCIISpace(rest); rest == "" {
				break
			}
			idx, val, n, ok := scanPair(rest)
			if ok {
				rest = rest[n:]
			} else {
				var f string
				if f, rest = nextField(rest); f == "" {
					break
				}
				colon := strings.IndexByte(f, ':')
				if colon < 0 {
					return nil, fmt.Errorf("ingest: line %d: bad pair %q", line, f)
				}
				i, err := parseIndex(f[:colon])
				if err != nil {
					return nil, fmt.Errorf("ingest: line %d: bad index %q: %w", line, f[:colon], err)
				}
				if val, err = parseValue32(f[colon+1:]); err != nil {
					return nil, fmt.Errorf("ingest: line %d: bad value %q: %w", line, f[colon+1:], err)
				}
				idx = uint32(i)
			}
			b.Feat = append(b.Feat, idx)
			b.Val = append(b.Val, float32(val))
			if cols := int(idx) + 1; cols > b.Cols {
				b.Cols = cols
			}
		}
		if err := sortRow(b.Feat[rowStart:], b.Val[rowStart:], line); err != nil {
			return nil, err
		}
		b.Labels = append(b.Labels, float32(label))
		b.RowPtr = append(b.RowPtr, int64(len(b.Feat)))
	}
	return b, nil
}

// scanPair reads the field "idx:value" at the start of s when the index
// has one to nine digits, the value is one scanDecimal rounds exactly and
// an ASCII space or the end of s follows; n is the field's length. ok is
// false for any other field, which the caller then parses in full.
func scanPair(s string) (idx uint32, val float64, n int, ok bool) {
	i := 0
	for ; i < len(s) && i < 10; i++ {
		d := s[i] - '0'
		if d >= 10 {
			break
		}
		idx = idx*10 + uint32(d)
	}
	if i == 0 || i == 10 || i == len(s) || s[i] != ':' {
		return 0, 0, 0, false
	}
	i++
	val, n, ok = scanDecimal(s[i:])
	if !ok || !endsField(s, i+n) {
		return 0, 0, 0, false
	}
	return idx, val, i + n, true
}

// endsField reports whether a field of s ends at byte i: at the end of s
// or at an ASCII space.
func endsField(s string, i int) bool {
	return i == len(s) || s[i] < utf8.RuneSelf && asciiSpace[s[i]]
}

// skipASCIISpace drops the ASCII spaces at the start of s.
func skipASCIISpace(s string) string {
	i := 0
	for i < len(s) && s[i] < utf8.RuneSelf && asciiSpace[s[i]] {
		i++
	}
	return s[i:]
}

// nextField splits the first field off s: leading spaces are skipped and
// the field runs to the next space, or is empty when s holds only spaces.
// ASCII bytes are classified by table; other runs decode as UTF-8, and an
// invalid byte is a one-byte non-space, as in strings.Fields.
func nextField(s string) (field, rest string) {
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if r, w := utf8.DecodeRuneInString(s[i:]); unicode.IsSpace(r) {
			i += w
		} else {
			break
		}
	}
	j := i
	for j < len(s) {
		if c := s[j]; c > ' ' && c < utf8.RuneSelf {
			j++ // the common byte: printable ASCII
		} else if c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			j++
		} else if r, w := utf8.DecodeRuneInString(s[j:]); !unicode.IsSpace(r) {
			j += w
		} else {
			break
		}
	}
	return s[i:j], s[j:]
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}
