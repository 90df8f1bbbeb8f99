package perfstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// WAL layout: a directory holding at most one snapshot plus a sequence of
// append-only log segments.
//
//	snap-<version, 16 hex digits>.json   full state at that store version
//	wal-<seq, 8 digits>.log              records appended since the snapshot
//
// Each log record is [length uint32 LE][crc32(payload) uint32 LE][payload]
// where payload is one canonically encoded profile (a full profile put —
// profiles are small, and full puts make replay order-insensitive per
// key). Save appends; when the active segment exceeds maxSegmentBytes a
// new one is opened, and when the directory holds more than
// compactAfterSegments segments the whole state is rewritten as a fresh
// versioned snapshot and the segments are deleted.
//
// Reopen loads the newest snapshot and replays every segment in sequence
// order. A torn record at the tail of the final segment (the shape a
// crash leaves) is truncated away; corruption anywhere else is an error —
// silently skipping interior records would resurrect stale profiles.
const (
	walRecordHeader = 8
	snapPrefix      = "snap-"
	segPrefix       = "wal-"
)

// WALOptions tunes the write-ahead log. Zero values take defaults; only
// tests set its fields.
type WALOptions struct {
	maxSegmentBytes      int64 // rotate the active segment beyond this (default 1 MiB)
	compactAfterSegments int   // snapshot + reset once this many segments exist (default 4)
}

func (o WALOptions) withDefaults() WALOptions {
	if o.maxSegmentBytes <= 0 {
		o.maxSegmentBytes = 1 << 20
	}
	if o.compactAfterSegments <= 0 {
		o.compactAfterSegments = 4
	}
	return o
}

// OpenWAL opens (creating if needed) a log-backed store in dir and
// recovers its state from the newest snapshot plus the log segments. The
// full profile set also lives in memory (profiles are two to three orders
// of magnitude smaller than the pyramids the data plane caches), so reads
// never touch disk; the files exist to survive restarts.
func OpenWAL(dir string, opts WALOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("perfstore: wal dir: %w", err)
	}
	s := &Store{dir: dir, opts: opts.withDefaults(), profiles: make(map[string]*profile)}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// snapVersion parses "snap-<hex>.json"; segSeq parses "wal-<n>.log".
func snapVersion(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, ".json") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), ".json"), 16, 64)
	return v, err == nil
}

func segSeq(name string) (int, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), ".log"))
	return n, err == nil
}

func (s *Store) snapPath(version uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016x.json", snapPrefix, version))
}

func (s *Store) segPath(seq int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%08d.log", segPrefix, seq))
}

// snapshotFile is the snapshot schema: the store version plus every
// profile in config-key order (canonical bytes — see Snapshot).
type snapshotFile struct {
	Version  uint64     `json:"version"`
	Profiles []*profile `json:"profiles"`
}

// walRecord frames one normalized profile as a log record. The payload
// is canonical JSON: records in resource-key order, map keys sorted
// (encoding/json sorts them), no indentation, so the same logical profile
// always encodes to the same bytes.
func walRecord(p *profile) ([]byte, error) {
	payload, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("perfstore: encode profile: %w", err)
	}
	rec := make([]byte, walRecordHeader, walRecordHeader+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	return append(rec, payload...), nil
}

func (s *Store) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("perfstore: wal scan: %w", err)
	}
	bestSnap := uint64(0)
	haveSnap := false
	var segs []int
	for _, e := range entries {
		if v, ok := snapVersion(e.Name()); ok {
			if !haveSnap || v > bestSnap {
				bestSnap, haveSnap = v, true
			}
		}
		if n, ok := segSeq(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	if haveSnap {
		b, err := os.ReadFile(s.snapPath(bestSnap))
		if err != nil {
			return fmt.Errorf("perfstore: read snapshot: %w", err)
		}
		var sf snapshotFile
		if err := json.Unmarshal(b, &sf); err != nil {
			return fmt.Errorf("perfstore: decode snapshot %016x: %w", bestSnap, err)
		}
		for _, p := range sf.Profiles {
			if err := p.check(); err != nil {
				return fmt.Errorf("perfstore: snapshot %016x: %w", bestSnap, err)
			}
			s.profiles[p.ConfigKey] = p
		}
		s.version = sf.Version
	}
	sort.Ints(segs)
	for i, seq := range segs {
		if err := s.replaySegment(seq, i == len(segs)-1); err != nil {
			return err
		}
	}
	// Append into the highest segment (or start the first one).
	next := 1
	if n := len(segs); n > 0 {
		next = segs[n-1]
	}
	f, err := os.OpenFile(s.segPath(next), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("perfstore: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("perfstore: stat segment: %w", err)
	}
	s.cur, s.curSeq, s.curBytes = f, next, st.Size()
	return nil
}

// replaySegment folds one segment's records into the in-memory state. A
// torn tail in the final segment is truncated; anything else fails.
func (s *Store) replaySegment(seq int, last bool) error {
	path := s.segPath(seq)
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("perfstore: read segment: %w", err)
	}
	off := 0
	for off < len(b) {
		rest := b[off:]
		if len(rest) < walRecordHeader {
			break // torn header
		}
		n := int(binary.LittleEndian.Uint32(rest[0:4]))
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n < 0 || walRecordHeader+n > len(rest) {
			break // torn payload
		}
		payload := rest[walRecordHeader : walRecordHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt record
		}
		p, err := decodeProfile(payload)
		if err != nil {
			break // structurally corrupt payload
		}
		s.profiles[p.ConfigKey] = p
		s.version++
		off += walRecordHeader + n
	}
	if off != len(b) {
		if !last {
			return fmt.Errorf("perfstore: segment %d corrupt at offset %d (not the tail segment)", seq, off)
		}
		if err := os.Truncate(path, int64(off)); err != nil {
			return fmt.Errorf("perfstore: truncate torn tail: %w", err)
		}
	}
	return nil
}

// boundLogLocked rotates the active segment once it is full, compacts
// once enough segments exist, and reports the log size.
func (s *Store) boundLogLocked() error {
	if s.curBytes >= s.opts.maxSegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
		if s.curSeq-s.oldestSegLocked() >= s.opts.compactAfterSegments {
			if err := s.compactLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// oldestSegLocked returns the lowest live segment sequence number.
func (s *Store) oldestSegLocked() int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return s.curSeq
	}
	oldest := s.curSeq
	for _, e := range entries {
		if n, ok := segSeq(e.Name()); ok && n < oldest {
			oldest = n
		}
	}
	return oldest
}

// rotateLocked closes the active segment and opens the next.
func (s *Store) rotateLocked() error {
	if err := s.cur.Close(); err != nil {
		return fmt.Errorf("perfstore: close segment: %w", err)
	}
	s.curSeq++
	f, err := os.OpenFile(s.segPath(s.curSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("perfstore: rotate: %w", err)
	}
	s.cur, s.curBytes = f, 0
	return nil
}

// Compact forces a snapshot + segment reset now. A memory store has no
// log to compact.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("perfstore: store closed")
	}
	if s.dir == "" {
		return fmt.Errorf("perfstore: memory store has no log to compact")
	}
	return s.compactLocked()
}

// compactLocked writes a fresh versioned snapshot and deletes the log
// segments (and older snapshots) it subsumes.
func (s *Store) compactLocked() error {
	tmp := filepath.Join(s.dir, "snap.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("perfstore: snapshot: %w", err)
	}
	if err := s.writeSnapshotLocked(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("perfstore: snapshot: %w", err)
	}
	if err := os.Rename(tmp, s.snapPath(s.version)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("perfstore: snapshot rename: %w", err)
	}
	// Retire everything the snapshot covers: all segments but a fresh
	// active one, and any older snapshot.
	if err := s.cur.Close(); err != nil {
		return fmt.Errorf("perfstore: close segment: %w", err)
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("perfstore: compact scan: %w", err)
	}
	for _, e := range entries {
		if n, ok := segSeq(e.Name()); ok {
			if err := os.Remove(s.segPath(n)); err != nil {
				return fmt.Errorf("perfstore: compact: %w", err)
			}
		}
		if v, ok := snapVersion(e.Name()); ok && v < s.version {
			_ = os.Remove(s.snapPath(v))
		}
	}
	s.curSeq++
	nf, err := os.OpenFile(s.segPath(s.curSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("perfstore: compact: %w", err)
	}
	s.cur, s.curBytes = nf, 0
	return nil
}

// writeSnapshotLocked writes the canonical snapshot bytes: version, then
// profiles sorted by config key, each with records in resource-key order
// (stored profiles are normalized and never mutated in place). The same
// logical state always produces identical bytes.
func (s *Store) writeSnapshotLocked(w io.Writer) error {
	keys := s.keysLocked()
	sf := snapshotFile{Version: s.version, Profiles: make([]*profile, len(keys))}
	for i, k := range keys {
		sf.Profiles[i] = s.profiles[k]
	}
	b, err := json.Marshal(sf)
	if err != nil {
		return fmt.Errorf("perfstore: encode snapshot: %w", err)
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("perfstore: write snapshot: %w", err)
	}
	return nil
}
