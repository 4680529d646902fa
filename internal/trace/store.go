package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"

	"gopim/internal/obs"
)

// Store is a persistent, content-addressed cache of recorded traces: the
// on-disk half of capture-once/replay-many, making a cold process as warm
// as one that already recorded everything. Entries are addressed by the
// kernel content key (the same key trace.Cache memoizes traces under —
// the recorded stream is hardware-independent, so one entry serves every
// hardware geometry) and live at
//
//	<dir>/v<storeFormatVersion>/<hh>/<sha256(key)>.trace
//
// where <hh> is the first two hex digits of the key hash. The version
// directory makes a format bump a clean invalidation: old entries are
// simply never consulted, and Verify reports (and can prune) them.
//
// A Store is a cache, never an authority: a missing, corrupt, truncated,
// or version-mismatched entry is a miss — the kernel re-records and the
// write-through repairs the entry — so no store state can crash a run or
// change its output (gated byte-for-byte in scripts/check.sh).
//
// Store is safe for concurrent use, including by multiple processes
// sharing one directory: writers stage entries in a temp file and
// atomically rename them into place.
type Store struct {
	root string // as given to OpenStore
	dir  string // version-qualified entry root

	// Obs, when non-nil, receives load/save phase spans (the store's own
	// counters are exported via MetricsInto). Set it before sharing the
	// store across goroutines.
	Obs *obs.Registry

	wg sync.WaitGroup
	// sem bounds concurrent background writers: a sweep can issue one
	// SaveAsync per kernel in a burst, and an unbounded goroutine-per-save
	// fan-out would stack thousands of writers against the same disk.
	sem chan struct{}

	hits, misses, saves, saveErrors, corrupt atomic.Int64
}

const storeEntryExt = ".trace"

// storeSaveConcurrency is the maximum number of in-flight SaveAsync
// writers per store.
const storeSaveConcurrency = 8

// versionDirRx matches version-qualified entry directories under the root.
var versionDirRx = regexp.MustCompile(`^v[0-9]+$`)

// OpenStore opens (creating if needed) a trace store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	vdir := filepath.Join(dir, fmt.Sprintf("v%d", storeFormatVersion))
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		return nil, fmt.Errorf("opening trace store: %w", err)
	}
	return &Store{root: dir, dir: vdir, sem: make(chan struct{}, storeSaveConcurrency)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

// entryPath returns the content-addressed path for key.
func (s *Store) entryPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, name[:2], name+storeEntryExt)
}

// StoreStats reports what a Store has done so far.
type StoreStats struct {
	Hits       int64 // loads served from disk
	Misses     int64 // loads that found no entry
	Corrupt    int64 // loads that found an undecodable or mismatched entry
	Saves      int64 // entries written
	SaveErrors int64 // write attempts that failed (entry left absent/old)
}

// Stats returns a snapshot of the store's activity counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	return StoreStats{
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		Corrupt:    s.corrupt.Load(),
		Saves:      s.saves.Load(),
		SaveErrors: s.saveErrors.Load(),
	}
}

// MetricsInto implements obs.Source, exporting the store's counters into
// registry snapshots — the same atomics Stats reads.
func (s *Store) MetricsInto(emit func(name string, value int64)) {
	st := s.Stats()
	emit("hits", st.Hits)
	emit("misses", st.Misses)
	emit("corrupt", st.Corrupt)
	emit("saves", st.Saves)
	emit("save_errors", st.SaveErrors)
}

// Load returns the stored trace for key, or ok == false on any miss —
// absent entry, unreadable file, corrupt or version-mismatched contents,
// or an entry whose recorded key does not match (a hash filed under the
// wrong name). A nil store always misses.
func (s *Store) Load(key string) (*Trace, bool) {
	if s == nil {
		return nil, false
	}
	defer s.Obs.Span("phase.store.load").End()
	data, err := os.ReadFile(s.entryPath(key))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	gotKey, t, err := decodeTrace(data)
	if err != nil || gotKey != key {
		s.corrupt.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return t, true
}

// SaveAsync writes the trace for key through to disk on a background
// goroutine, so recording runs never wait on I/O; Wait blocks until all
// pending writes land. The entry carries the trace's mem.LineSize form,
// lowered through the trace's single-flight compile unless a replay has
// already done so. Failures only bump SaveErrors — the store stays a
// best-effort cache. A nil store ignores the write.
func (s *Store) SaveAsync(key string, t *Trace) {
	if s == nil {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if s.sem != nil {
			s.sem <- struct{}{}
			defer func() { <-s.sem }()
		}
		defer s.Obs.Span("phase.store.save").End()
		if err := s.save(key, t); err != nil {
			s.saveErrors.Add(1)
			return
		}
		s.saves.Add(1)
	}()
}

// save stages the encoded entry in a temp file and renames it into place,
// so readers (and concurrent writers) never observe a partial entry.
func (s *Store) save(key string, t *Trace) error {
	path := s.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return err
	}
	_, werr := f.Write(encodeTrace(key, t))
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(f.Name(), path)
	}
	if werr != nil {
		os.Remove(f.Name())
		return werr
	}
	return nil
}

// Wait blocks until every SaveAsync issued so far has finished.
func (s *Store) Wait() {
	if s != nil {
		s.wg.Wait()
	}
}

// VerifyIssue is one defective store file found by Verify.
type VerifyIssue struct {
	Path   string
	Reason string
}

// VerifyReport summarizes a store integrity sweep.
type VerifyReport struct {
	OK        int           // intact entries
	Bytes     int64         // total bytes across intact entries
	Issues    []VerifyIssue // corrupt, misfiled, or stray files
	StaleDirs []string      // entry directories for other format versions
}

// Verify decodes every entry under the current format version, checking
// magic, version, checksum, section structure, and that each entry is filed under its
// own key's hash; it also reports stale version directories left behind by
// format bumps and stray files (e.g. temp files from a crashed writer).
// With prune set, defective files and stale directories are deleted.
// Directory listings are sorted, so reports are deterministic.
func (s *Store) Verify(prune bool) (VerifyReport, error) {
	var rep VerifyReport

	ents, err := os.ReadDir(s.root)
	if err != nil {
		return rep, fmt.Errorf("trace store verify: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() && versionDirRx.MatchString(e.Name()) && filepath.Join(s.root, e.Name()) != s.dir {
			rep.StaleDirs = append(rep.StaleDirs, filepath.Join(s.root, e.Name()))
		}
	}

	err = filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if !strings.HasSuffix(path, storeEntryExt) {
			rep.Issues = append(rep.Issues, VerifyIssue{Path: path, Reason: "stray file (not a store entry)"})
			return nil
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			rep.Issues = append(rep.Issues, VerifyIssue{Path: path, Reason: rerr.Error()})
			return nil
		}
		key, _, derr := decodeTrace(data)
		if derr != nil {
			s.corrupt.Add(1)
			rep.Issues = append(rep.Issues, VerifyIssue{Path: path, Reason: derr.Error()})
			return nil
		}
		if want := s.entryPath(key); want != path {
			s.corrupt.Add(1)
			rep.Issues = append(rep.Issues, VerifyIssue{Path: path, Reason: "entry filed under the wrong key hash"})
			return nil
		}
		rep.OK++
		rep.Bytes += int64(len(data))
		return nil
	})
	if err != nil {
		return rep, fmt.Errorf("trace store verify: %w", err)
	}

	if prune {
		for _, issue := range rep.Issues {
			if rmErr := os.Remove(issue.Path); rmErr != nil && err == nil {
				err = rmErr
			}
		}
		for _, dir := range rep.StaleDirs {
			if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
				err = rmErr
			}
		}
	}
	return rep, err
}
