// Package ingest is the dataset ingestion pipeline: chunked, parallel
// parsing of LibSVM and CSV sources, a column pass that derives histogram
// bin boundaries from one transposition of the parsed matrix, and a
// versioned, columnar binned binary cache (.vbin) that lets warm runs skip
// parsing and binning entirely.
//
// # Pipeline
//
// ScanBlocks splits the input into fixed-size row blocks (complete lines),
// parses the blocks on a worker pool, and re-sequences the results so the
// consumer sees blocks in file order. Labels and values are read by one
// scanner equal to strconv.ParseFloat(s, 32) bit for bit: short plain
// decimals take Clinger's exact fast path through a float64 quotient, and
// everything else is strconv's. Everything downstream is a consumer of
// that one block iterator:
//
//   - ReadDataset collects the blocks and copies them, in parallel at their
//     prefix-sum offsets, into an in-memory Dataset. It is the repository's
//     one LibSVM parser (gbdt.ReadLibSVM goes through it); the tests hold
//     it bit for bit to the single-threaded parser it replaced, now kept
//     only as test code.
//   - Ingest then transposes the matrix once with sparse.TransposeCSR on
//     Options.Workers goroutines (each counts its rows' entries per
//     column, and the prefix sums of those counts give every worker its
//     own write cursors, so each column keeps global row order), and
//     derives its candidate splits with sketch.Canonical, one
//     Greenwald–Khanna sketch per column, the columns dealt to the same
//     workers. The splits are attached to the Dataset as a
//     datasets.Prebin the trainer adopts instead of re-sketching.
//   - A cold Cached makes the same transposition and reuses it for the
//     image: the columns are binned in parallel straight into its bins
//     section. A cold EnsureCache, which returns no dataset, transposes the
//     parsed blocks directly and never builds the row-major matrix.
//
// Chunking bounds the parser's scratch memory, not the final matrix: the
// trainer needs the whole (binned) dataset resident, so ingestion still
// materializes it. What the pipeline removes is single-threaded parsing
// and the repeated sketch+bin work — and the cache below removes the parse
// itself.
//
// # The .vbin cache
//
// WriteCacheFile stores a dataset in binned columnar form: per-feature
// candidate splits, bin-width-packed (instance, bin) columns, and the
// label block, all little-endian with a versioned header and checksum (the
// byte-level specification lives in docs/DATA.md). The format has one
// decoder, MappedCache: opening a view checks the header against the file
// size, the payload checksum, the section sizes, and every column's
// instance order and instance/bin ranges. ReadCacheFile opens that view
// and materializes it whole, and ReadCacheShard one rank's slice of it,
// into a Dataset whose values are bin representatives — each value re-bins
// to exactly the bin stored in the cache — with Prebin.Quantized set.
// Training such a dataset with the cache's (SketchEps, Q) parameters
// produces a model bit-identical to training from the original source
// file; training it with other parameters is rejected, because the source
// values needed to re-sketch are gone.
//
// The image is column-major and the dataset row-major, so every warm load
// is one column-to-row transposition, and it is cache-blocked. The
// selected rows are cut into blocks sized from the image's shape, so a
// block's window of the output fits in cache, and runtime.GOMAXPROCS
// workers each take a contiguous run of blocks. A worker finds its first
// row in every column once, then advances one cursor per column from
// block to block: a count pass tallies each row's entries, and after their
// prefix sum a fill pass writes every entry at its row's cursor. The
// bookkeeping is two cursors per column per worker, so a wide image costs
// no more than a serial load plus O(workers × columns); on a wide image
// the blocks grow until stepping the cursors stays a small share of the
// work.
//
// Cached ties it together: it warm-loads a fresh cache when one exists and
// cold-ingests (then writes the cache) otherwise. The cache format is also
// the intended shard-exchange format for future distributed ingestion: a
// shard is just a .vbin file whose columns cover a feature group.
package ingest
