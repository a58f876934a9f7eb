package ingest

import (
	"bytes"
	"fmt"
	"strings"
)

// The CSV dialect (specified in docs/DATA.md):
//
//   - comma-separated; the first column is the label, column j holds
//     feature j-1 (features are 0-based);
//   - an empty field is a missing value — no entry is stored; an explicit
//     "0" is stored like any other value;
//   - fields may be double-quoted; inside quotes, commas are literal and
//     "" escapes one quote. Embedded newlines are not supported: a
//     quote left open at end of line is an error;
//   - every row must have the same number of fields;
//   - if the very first line's label field does not parse as a number,
//     that line is treated as a header and skipped;
//   - blank lines and lines starting with '#' are skipped.

// parseCSVChunk parses one chunk of CSV lines into a Block.
func parseCSVChunk(c rawChunk, opts Options) (*Block, error) {
	b := newBlock(c, bytes.Count(c.data, []byte{','}))
	s := string(c.data)
	line := c.firstLine - 1
	var fields []string
	for len(s) > 0 {
		line++
		var raw string
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			raw, s = s[:i], s[i+1:]
		} else {
			raw, s = s, ""
		}
		raw = strings.TrimSuffix(raw, "\r")
		if raw == "" || strings.HasPrefix(raw, "#") {
			continue
		}
		var err error
		fields, err = splitCSVLine(raw, fields[:0])
		if err != nil {
			return nil, fmt.Errorf("ingest: line %d: %w", line, err)
		}
		label, err := parseValue32(fields[0])
		if err != nil {
			if line == 1 {
				// A non-numeric label field on the file's first line is a
				// header row.
				continue
			}
			return nil, fmt.Errorf("ingest: line %d: bad label %q: %w", line, fields[0], err)
		}
		if b.width == 0 {
			b.width = len(fields)
			b.firstLine = line
		} else if len(fields) != b.width {
			return nil, fmt.Errorf("ingest: line %d: row has %d fields, want %d", line, len(fields), b.width)
		}
		if err := checkLabel(label, opts.NumClass, line); err != nil {
			return nil, err
		}
		for j, f := range fields[1:] {
			if f == "" {
				continue // missing value
			}
			v, err := parseValue32(f)
			if err != nil {
				return nil, fmt.Errorf("ingest: line %d: bad value %q for feature %d: %w", line, f, j, err)
			}
			b.Feat = append(b.Feat, uint32(j))
			b.Val = append(b.Val, float32(v))
		}
		if cols := b.width - 1; cols > b.Cols {
			b.Cols = cols
		}
		b.Labels = append(b.Labels, float32(label))
		b.RowPtr = append(b.RowPtr, int64(len(b.Feat)))
	}
	return b, nil
}

// splitCSVLine splits one physical line into fields, honoring quoting.
// dst is reused storage for the result.
func splitCSVLine(line string, dst []string) ([]string, error) {
	for {
		if len(line) > 0 && line[0] == '"' {
			// Quoted field: scan to the closing quote, unescaping "".
			var sb strings.Builder
			i := 1
			for {
				if i >= len(line) {
					return nil, fmt.Errorf("unterminated quoted field (embedded newlines are not supported)")
				}
				if line[i] == '"' {
					if i+1 < len(line) && line[i+1] == '"' {
						sb.WriteByte('"')
						i += 2
						continue
					}
					break
				}
				sb.WriteByte(line[i])
				i++
			}
			rest := line[i+1:]
			if rest != "" && rest[0] != ',' {
				return nil, fmt.Errorf("unexpected %q after closing quote", rest[0])
			}
			dst = append(dst, sb.String())
			if rest == "" {
				return dst, nil
			}
			line = rest[1:]
			continue
		}
		i := strings.IndexByte(line, ',')
		if i < 0 {
			return append(dst, line), nil
		}
		dst = append(dst, line[:i])
		line = line[i+1:]
	}
}
