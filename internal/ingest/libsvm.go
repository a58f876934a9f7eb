package ingest

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// parseLibSVMChunk parses one chunk of LibSVM/SVMLight lines: "label
// idx:value idx:value ...". Blank lines and lines starting with '#' are
// skipped. Indices may be 0- or 1-based and are used as-is, matching the
// reference parser (datasets.ReadLibSVM).
//
// The chunk's buffer belongs to this call and is never written again, so
// it is read in place as a string: lines and fields are substrings of it,
// split on unicode.IsSpace exactly as strings.Fields splits them.
func parseLibSVMChunk(c rawChunk, opts Options) (*Block, error) {
	b := &Block{firstLine: c.firstLine, RowPtr: make([]int64, 1, 64)}
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
		first, rest := nextField(text)
		if first == "" || first[0] == '#' {
			continue
		}
		label, err := strconv.ParseFloat(first, 32)
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: bad label %q: %w", line, first, err)
		}
		if err := checkLabel(label, opts.NumClass, line); err != nil {
			return nil, err
		}
		rowStart := len(b.Feat)
		for {
			var f string
			if f, rest = nextField(rest); f == "" {
				break
			}
			colon := strings.IndexByte(f, ':')
			if colon < 0 {
				return nil, fmt.Errorf("ingest: line %d: bad pair %q", line, f)
			}
			idx, err := strconv.ParseUint(f[:colon], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("ingest: line %d: bad index %q: %w", line, f[:colon], err)
			}
			val, err := strconv.ParseFloat(f[colon+1:], 32)
			if err != nil {
				return nil, fmt.Errorf("ingest: line %d: bad value %q: %w", line, f[colon+1:], err)
			}
			b.Feat = append(b.Feat, uint32(idx))
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
