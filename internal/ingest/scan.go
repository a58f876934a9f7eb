package ingest

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"sync"

	"vero/internal/failpoint"
	"vero/internal/sparse"
)

// Format selects the ingestion text dialect.
type Format string

// Supported input formats.
const (
	FormatLibSVM Format = "libsvm"
	FormatCSV    Format = "csv"
)

// ParseFormat reads a format from its command-line spelling.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatLibSVM, FormatCSV:
		return Format(s), nil
	case "":
		return FormatLibSVM, nil
	}
	return "", fmt.Errorf("ingest: unknown format %q (want libsvm or csv)", s)
}

// Pipeline defaults.
const (
	// DefaultChunkRows is the block size used when Options.ChunkRows is
	// zero: large enough to amortize scheduling, small enough that a block
	// is a cache-friendly unit of parser work.
	DefaultChunkRows = 4096
	// DefaultSketchEps matches core.Config's sketch error default, so
	// ingestion-derived splits are adopted by default-configured training.
	DefaultSketchEps = 0.01
	// DefaultQ is the paper's candidate-split budget q.
	DefaultQ = 20
)

// Options configures the ingestion pipeline.
type Options struct {
	// Format is the input dialect (default FormatLibSVM).
	Format Format
	// NumClass is 1 for regression, 2 for binary classification, >2 for
	// multi-class; classification labels must be integers in [0, NumClass).
	NumClass int
	// ChunkRows is the number of input lines per parsed block (default
	// DefaultChunkRows).
	ChunkRows int
	// Workers is the parse-worker pool size (default GOMAXPROCS).
	Workers int
	// SketchEps is the quantile-sketch error bound used when deriving bin
	// boundaries (default 0.01, matching core.Config.SketchEps).
	SketchEps float64
	// Q is the candidate-split budget per feature (default 20, the
	// paper's q; at most sparse.MaxBins, as core.Config requires).
	Q int
}

func (o Options) withDefaults() (Options, error) {
	if o.Format == "" {
		o.Format = FormatLibSVM
	}
	if o.Format != FormatLibSVM && o.Format != FormatCSV {
		return o, fmt.Errorf("ingest: unknown format %q", o.Format)
	}
	if o.NumClass < 1 {
		return o, fmt.Errorf("ingest: numClass %d", o.NumClass)
	}
	if o.ChunkRows == 0 {
		o.ChunkRows = DefaultChunkRows
	}
	if o.ChunkRows < 1 {
		return o, fmt.Errorf("ingest: chunkRows %d", o.ChunkRows)
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return o, fmt.Errorf("ingest: workers %d", o.Workers)
	}
	if o.SketchEps == 0 {
		o.SketchEps = DefaultSketchEps
	}
	if o.SketchEps < 0 || o.SketchEps >= 1 {
		return o, fmt.Errorf("ingest: sketchEps %v out of (0,1)", o.SketchEps)
	}
	if o.Q == 0 {
		o.Q = DefaultQ
	}
	if o.Q < 2 {
		return o, fmt.Errorf("ingest: candidate splits q=%d", o.Q)
	}
	if o.Q > sparse.MaxBins {
		return o, fmt.Errorf("ingest: candidate splits q=%d above the limit of %d bins a feature", o.Q, sparse.MaxBins)
	}
	return o, nil
}

// Block is one contiguous run of parsed rows: a mini-CSR with labels. Rows
// within a block keep file order; feature pairs within a row are sorted by
// feature index.
type Block struct {
	// Index is the block's position in the file's block sequence.
	Index int
	// Start is the absolute dataset index of the block's first row.
	Start int
	// Labels holds one label per row.
	Labels []float32
	// RowPtr has NumRows+1 entries; row i occupies [RowPtr[i], RowPtr[i+1])
	// of Feat and Val.
	RowPtr []int64
	// Feat holds the feature indices of the block's entries.
	Feat []uint32
	// Val holds the values of the block's entries.
	Val []float32
	// Cols is one past the largest feature index seen in the block (zero
	// when the block stores no entries).
	Cols int

	// firstLine is the 1-based input line of the block's first physical
	// line (blank and comment lines before its first row only make a
	// reported line earlier); width is the CSV field count (0 for LibSVM),
	// both kept for cross-block error reporting.
	firstLine int
	width     int
}

// newBlock returns an empty block for chunk c, sized for its lines and for
// at most entries stored entries.
func newBlock(c rawChunk, entries int) *Block {
	return &Block{
		firstLine: c.firstLine,
		Labels:    make([]float32, 0, c.lines),
		RowPtr:    append(make([]int64, 0, c.lines+1), 0),
		Feat:      make([]uint32, 0, entries),
		Val:       make([]float32, 0, entries),
	}
}

// NumRows returns the number of parsed rows in the block.
func (b *Block) NumRows() int { return len(b.Labels) }

// rawChunk is an unparsed run of complete input lines.
type rawChunk struct {
	index     int
	firstLine int // 1-based line number of the chunk's first line
	lines     int // number of lines in data
	data      []byte
}

type blockResult struct {
	index int
	block *Block
	err   error
}

// ScanBlocks streams the input through the chunked parallel parser and
// invokes fn for each block in file order. Parsing runs on Options.Workers
// goroutines; fn runs on the calling goroutine, strictly sequentially, and
// a non-nil error from it stops the scan. The first error in file order
// wins, so results are deterministic regardless of scheduling. Every
// goroutine the scan starts has exited when it returns.
func ScanBlocks(r io.Reader, opts Options, fn func(*Block) error) error {
	opts, err := opts.withDefaults()
	if err != nil {
		return err
	}
	parse := parseLibSVMChunk
	if opts.Format == FormatCSV {
		parse = parseCSVChunk
	}

	chunkCh := make(chan rawChunk, opts.Workers)
	resCh := make(chan blockResult, opts.Workers)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	var readErr error
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		defer close(chunkCh)
		readErr = produceChunks(r, opts.ChunkRows, chunkCh, stop)
	}()
	// On an early stop the reader may still be inside a Read; it notices
	// the stop at its next send.
	defer func() { halt(); <-produced }()

	var wg sync.WaitGroup
	wg.Add(opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		go func() {
			defer wg.Done()
			for c := range chunkCh {
				b, err := parse(c, opts)
				if err == nil {
					if ferr := failpoint.Inject(FailpointParseBlock); ferr != nil {
						err = fmt.Errorf("ingest: parse block %d: %w", c.index, ferr)
					}
				}
				select {
				case resCh <- blockResult{index: c.index, block: b, err: err}:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(resCh)
	}()

	pending := make(map[int]blockResult)
	next, start, width := 0, 0, 0
	var emitErr error
	for res := range resCh {
		if emitErr != nil {
			continue // drain until workers exit
		}
		pending[res.index] = res
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if cur.err != nil {
				emitErr = cur.err
				halt()
				break
			}
			b := cur.block
			// CSV blocks must agree on the field count; each block is
			// internally consistent, so comparing block widths suffices.
			if b.width > 0 {
				if width == 0 {
					width = b.width
				} else if b.width != width {
					emitErr = fmt.Errorf("ingest: line %d: row has %d fields, want %d", b.firstLine, b.width, width)
					halt()
					break
				}
			}
			b.Index = next
			b.Start = start
			start += b.NumRows()
			if err := fn(b); err != nil {
				emitErr = err
				halt()
				break
			}
			next++
		}
	}
	if emitErr != nil {
		return emitErr
	}
	return readErr
}

// produceChunks slices the input into runs of up to chunkRows complete
// lines. Line boundaries never split a chunk mid-row, so a row cannot
// straddle two blocks by construction.
func produceChunks(r io.Reader, chunkRows int, out chan<- rawChunk, stop <-chan struct{}) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	index, line := 0, 1
	first := 1
	rows := 0
	buf := make([]byte, 0, 64<<10)
	send := func() bool {
		select {
		case out <- rawChunk{index: index, firstLine: first, lines: rows, data: buf}:
		case <-stop:
			return false
		}
		index++
		first = line
		rows = 0
		// The next chunk is likely about as long as this one: sizing its
		// buffer by the length, not by this buffer's capacity, keeps small
		// chunks from each holding a 64 KiB buffer.
		buf = make([]byte, 0, len(buf)+len(buf)/8)
		return true
	}
	for sc.Scan() {
		buf = append(buf, sc.Bytes()...)
		buf = append(buf, '\n')
		rows++
		line++
		if rows >= chunkRows {
			if !send() {
				return nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("ingest: read: %w", err)
	}
	if rows > 0 {
		if !send() {
			return nil
		}
	}
	return nil
}

// sortRow sorts a row's parallel (feat, val) slices by feature index and
// rejects duplicates. Rows are short and usually pre-sorted, so insertion
// sort is the right shape.
func sortRow(feat []uint32, val []float32, line int) error {
	for i := 1; i < len(feat); i++ {
		f, v := feat[i], val[i]
		j := i - 1
		for j >= 0 && feat[j] > f {
			feat[j+1], val[j+1] = feat[j], val[j]
			j--
		}
		feat[j+1], val[j+1] = f, v
	}
	for i := 1; i < len(feat); i++ {
		if feat[i] == feat[i-1] {
			return fmt.Errorf("ingest: line %d: duplicate feature index %d", line, feat[i])
		}
	}
	return nil
}

// checkLabel validates a classification label against the class count.
func checkLabel(y float64, numClass int, line int) error {
	if numClass < 2 {
		return nil
	}
	if y < 0 || int(y) >= numClass || y != float64(int(y)) {
		return fmt.Errorf("ingest: line %d: label %v outside [0,%d)", line, y, numClass)
	}
	return nil
}
