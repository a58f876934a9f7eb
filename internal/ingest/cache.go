package ingest

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"

	"vero/internal/datasets"
	"vero/internal/sparse"
)

// CacheStatus reports how Cached obtained its dataset.
type CacheStatus string

// Cached outcomes.
const (
	// CacheCold means the source was parsed and the cache (re)built.
	CacheCold CacheStatus = "cold"
	// CacheWarm means the dataset was loaded from a fresh cache.
	CacheWarm CacheStatus = "warm"
)

// CachePath derives the cache file path for a source file under dir. The
// name embeds a hash of the absolute source path and every ingestion
// parameter that shapes the cache, so parameter changes key different
// cache files instead of silently reusing stale ones.
func CachePath(dir, source string, opts Options) (string, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return "", err
	}
	abs, err := filepath.Abs(source)
	if err != nil {
		return "", fmt.Errorf("ingest: %w", err)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%g|%d", abs, opts.Format, opts.NumClass, opts.SketchEps, opts.Q)
	base := strings.TrimSuffix(filepath.Base(source), filepath.Ext(source))
	return filepath.Join(dir, fmt.Sprintf("%s-%016x.vbin", base, h.Sum64())), nil
}

// ReadFreshCache warm-loads the cache for source under dir when the
// cache file exists, is at least as new as the source and matches the
// requested parameters. Any other condition — including corruption — is
// reported as an error the caller treats as a miss.
func ReadFreshCache(dir, source string, opts Options) (*datasets.Dataset, error) {
	path, err := CachePath(dir, source, opts)
	if err != nil {
		return nil, err
	}
	opts, err = opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if !fresh(path, source) {
		return nil, fmt.Errorf("ingest: no fresh cache for %s", source)
	}
	ds, err := ReadCacheFile(path)
	if err != nil {
		return nil, err
	}
	if !ds.Prebin.Matches(opts.SketchEps, opts.Q) || ds.NumClass != opts.NumClass {
		return nil, &CacheMismatchError{Reason: fmt.Sprintf("cache %s does not match requested parameters", path)}
	}
	return ds, nil
}

// Cached loads source through the cache directory: when a cache file
// exists, is at least as new as the source and matches the requested
// parameters, it is warm-loaded (no parsing, no binning); otherwise the
// source is cold-ingested and the cache rewritten. A corrupt or mismatched
// cache is treated as a miss, never an error.
func Cached(dir, source string, opts Options) (*datasets.Dataset, CacheStatus, error) {
	if ds, err := ReadFreshCache(dir, source, opts); err == nil {
		return ds, CacheWarm, nil
	}
	path, err := CachePath(dir, source, opts)
	if err != nil {
		return nil, "", err
	}
	ds, err := coldCache(dir, path, source, opts, true)
	if err != nil {
		return nil, "", err
	}
	return ds, CacheCold, nil
}

// EnsureCache guarantees a fresh cache image for source under dir,
// cold-ingesting and writing it when missing or stale, and returns the
// cache file's path. The name embeds the ingestion parameters (see
// CachePath), so an existing fresh file at the derived path matches the
// request by construction. This is the entry point for out-of-core
// training, which maps the image instead of loading it.
func EnsureCache(dir, source string, opts Options) (string, CacheStatus, error) {
	path, err := CachePath(dir, source, opts)
	if err != nil {
		return "", "", err
	}
	if fresh(path, source) {
		return path, CacheWarm, nil
	}
	if _, err := coldCache(dir, path, source, opts, false); err != nil {
		return "", "", err
	}
	return path, CacheCold, nil
}

// coldCache parses source and writes its .vbin image to path under dir.
// The parsed rows are transposed once, in parallel, for both the column
// pass and the image. With keep set it returns the dataset, its Prebin
// attached, and the transposition reads the concatenated matrix; without,
// it transposes the parsed blocks directly and returns nil.
func coldCache(dir, path, source string, opts Options, keep bool) (*datasets.Dataset, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(source)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	defer f.Close()
	c, err := scan(f, opts)
	if err != nil {
		return nil, err
	}
	var ds *datasets.Dataset
	var cols *sparse.CSC
	var labels []float32
	if keep {
		if ds, err = c.dataset(string(opts.Format), opts.NumClass, opts.Workers); err != nil {
			return nil, err
		}
		cols, labels = sparse.TransposeCSR(ds.X, opts.Workers), ds.Labels
	} else {
		cols, labels = c.transpose(opts.Workers), c.labels()
	}
	pb := prebin(cols, opts.SketchEps, opts.Q, opts.Workers)
	if ds != nil {
		ds.Prebin = pb
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: cache dir: %w", err)
	}
	return ds, writeFileAtomic(path, func(w io.Writer) error { return writeImage(w, labels, opts.NumClass, cols, pb, opts.Workers) })
}

// fresh reports whether the cache at path exists and is at least as new
// as the source file.
func fresh(path, source string) bool {
	ci, err := os.Stat(path)
	if err != nil {
		return false
	}
	si, err := os.Stat(source)
	if err != nil {
		return false
	}
	return !ci.ModTime().Before(si.ModTime())
}
