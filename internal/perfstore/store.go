package perfstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// errNotFound reports that a store holds no profile for a configuration
// key. PerfStore treats it as "prior only", not as a failure.
var errNotFound = errors.New("perfstore: profile not found")

// Store holds the refined profiles: a mutex-guarded map of deep-copied
// profiles that every read is served from. A store opened on a directory
// by OpenWAL also appends each Save to a segmented write-ahead log
// (wal.go), so a restarted process recovers the refined model; one
// made by NewMemStore lives and dies with the process. Load returns a
// private copy the caller may mutate freely.
type Store struct {
	dir  string // "" for a memory store
	opts WALOptions

	mu       sync.Mutex
	profiles map[string]*profile
	version  uint64   // store-wide sequence: snapshot version + replayed/appended records
	cur      *os.File // active log segment; nil for a memory store
	curSeq   int
	curBytes int64
	walBytes int64 // bytes across all live segments
	closed   bool
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *Store { return &Store{profiles: make(map[string]*profile)} }

// Load returns the profile persisted under configKey, or errNotFound.
func (s *Store) Load(configKey string) (*profile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.profiles[configKey]
	if !ok {
		return nil, errNotFound
	}
	return p.Clone(), nil
}

// Keys lists the stored configuration keys in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keysLocked()
}

func (s *Store) keysLocked() []string {
	keys := make([]string, 0, len(s.profiles))
	for k := range s.profiles {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Save stores a copy of the profile (full replace under its ConfigKey).
// On a log-backed store it appends a WAL record first, then rotates or
// compacts when the bounds say so.
func (s *Store) Save(p *profile) error {
	c := p.Clone()
	c.normalize()
	var rec []byte
	if s.dir != "" {
		var err error
		if rec, err = walRecord(c); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("perfstore: store closed")
	}
	if s.dir != "" {
		if _, err := s.cur.Write(rec); err != nil {
			return fmt.Errorf("perfstore: append: %w", err)
		}
		s.curBytes += int64(len(rec))
		s.walBytes += int64(len(rec))
	}
	s.profiles[c.ConfigKey] = c
	s.version++
	if s.dir == "" {
		return nil
	}
	return s.boundLogLocked()
}

// WalBytes reports the bytes held in live log segments (compaction resets
// it, and a memory store holds none).
func (s *Store) WalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walBytes
}

// Snapshot writes the canonical snapshot bytes of the current state —
// the same bytes Compact persists. Two stores holding the same logical
// state produce identical output (the byte-stability contract restarts
// are tested against).
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeSnapshotLocked(w)
}

// Close releases the log segment; the store accepts no Save afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.dir == "" {
		return nil
	}
	return s.cur.Close()
}
