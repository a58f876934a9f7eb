package ingest

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"vero/internal/datasets"
	"vero/internal/sparse"
)

// The single-threaded LibSVM parser that ReadDataset replaced, frozen as
// the referee FuzzIngestLibSVM and the parser tests hold it to. It reads
// one line at a time with strings.Fields and strconv, and builds the
// matrix through sparse.CSRBuilder.

// referenceReadLibSVM parses LibSVM/SVMLight format: one instance per line,
// "label idx:value idx:value ...". Indices may be 0- or 1-based; they are
// used as-is, so a 1-based file simply leaves column 0 empty. numClass 1
// marks a regression task; 2 or more a classification task with integer
// labels in [0, numClass).
func referenceReadLibSVM(r io.Reader, numClass int) (*datasets.Dataset, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<24)
	var rows [][]sparse.KV
	var labels []float32
	maxFeat := uint32(0)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		label, err := strconv.ParseFloat(fields[0], 32)
		if err != nil {
			return nil, fmt.Errorf("datasets: line %d: bad label %q: %w", lineNo, fields[0], err)
		}
		var kvs []sparse.KV
		for _, f := range fields[1:] {
			colon := strings.IndexByte(f, ':')
			if colon < 0 {
				return nil, fmt.Errorf("datasets: line %d: bad pair %q", lineNo, f)
			}
			idx, err := strconv.ParseUint(f[:colon], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("datasets: line %d: bad index %q: %w", lineNo, f[:colon], err)
			}
			val, err := strconv.ParseFloat(f[colon+1:], 32)
			if err != nil {
				return nil, fmt.Errorf("datasets: line %d: bad value %q: %w", lineNo, f[colon+1:], err)
			}
			kvs = append(kvs, sparse.KV{Index: uint32(idx), Value: float32(val)})
			if uint32(idx) > maxFeat {
				maxFeat = uint32(idx)
			}
		}
		rows = append(rows, kvs)
		labels = append(labels, float32(label))
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("datasets: read: %w", err)
	}
	cols := int(maxFeat) + 1
	if len(rows) == 0 {
		cols = 0
	}
	b := sparse.NewCSRBuilder(cols)
	for i, kvs := range rows {
		if err := b.AddRow(kvs); err != nil {
			return nil, fmt.Errorf("datasets: row %d: %w", i, err)
		}
	}
	task := datasets.TaskRegression
	switch {
	case numClass == 2:
		task = datasets.TaskBinary
	case numClass > 2:
		task = datasets.TaskMulti
	case numClass < 1:
		return nil, fmt.Errorf("datasets: numClass %d", numClass)
	}
	if numClass >= 2 {
		for i, y := range labels {
			if y < 0 || int(y) >= numClass || y != float32(int(y)) {
				return nil, fmt.Errorf("datasets: row %d: label %v outside [0,%d)", i, y, numClass)
			}
		}
	}
	return &datasets.Dataset{Name: "libsvm", X: b.Build(), Labels: labels, NumClass: numClass, Task: task}, nil
}

// serialToCSC is the serial counting transposition (the body of the
// former CSR.ToCSC, written against sparse's exported API), frozen as the
// referee of the parallel kernel on the cold path.
func serialToCSC(m *sparse.CSR) *sparse.CSC {
	colPtr := make([]int64, m.Cols()+1)
	for _, f := range m.Feat {
		colPtr[f+1]++
	}
	for j := 0; j < m.Cols(); j++ {
		colPtr[j+1] += colPtr[j]
	}
	inst := make([]uint32, m.NNZ())
	val := make([]float32, m.NNZ())
	next := make([]int64, m.Cols())
	copy(next, colPtr[:m.Cols()])
	for i := 0; i < m.Rows(); i++ {
		feats, vals := m.Row(i)
		for k, f := range feats {
			p := next[f]
			inst[p] = uint32(i)
			val[p] = vals[k]
			next[f] = p + 1
		}
	}
	return sparse.NewCSC(m.Rows(), m.Cols(), colPtr, inst, val)
}
