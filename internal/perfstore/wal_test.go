package perfstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tunable/internal/resource"
	"tunable/internal/spec"
)

func walProfile(key string, version uint64, bw, tm float64) *profile {
	return &profile{
		ConfigKey: key,
		Version:   version,
		Records: []profileRecord{{
			Resources: resource.Vector{resource.Bandwidth: bw},
			Metrics:   spec.Metrics{"time": tm},
			Weight:    1,
			Samples:   1,
		}},
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Save(walProfile("codec=lzw,level=1", 1, 50e3, 99)); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(walProfile("codec=bzw,level=2", 1, 50e3, 42)); err != nil {
		t.Fatal(err)
	}
	// Re-save the first key: replay must keep only the newest state.
	if err := w.Save(walProfile("codec=lzw,level=1", 2, 50e3, 111)); err != nil {
		t.Fatal(err)
	}
	if v := w.version; v != 3 {
		t.Fatalf("version = %d, want 3", v)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if v := w2.version; v != 3 {
		t.Fatalf("replayed version = %d, want 3", v)
	}
	keys := w2.Keys()
	if len(keys) != 2 {
		t.Fatalf("replayed %d keys, want 2: %v", len(keys), keys)
	}
	p, err := w2.Load("codec=lzw,level=1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Records[0].Metrics["time"] != 111 {
		t.Fatalf("replay kept stale record: %v", p.Records[0].Metrics)
	}
	if _, err := w2.Load("codec=zzz"); err != errNotFound {
		t.Fatalf("missing key: %v, want errNotFound", err)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Save(walProfile("codec=lzw,level=1", 1, 50e3, 99)); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(walProfile("codec=bzw,level=1", 1, 50e3, 42)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Crash mid-append: chop bytes off the segment tail.
	seg := filepath.Join(dir, "wal-00000001.log")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("torn tail must recover, got %v", err)
	}
	keys := w2.Keys()
	if len(keys) != 1 || keys[0] != "codec=lzw,level=1" {
		t.Fatalf("recovered keys = %v, want only the intact record", keys)
	}
	// The torn record is gone from disk too: appends continue cleanly.
	if err := w2.Save(walProfile("codec=bzw,level=2", 1, 60e3, 40)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if keys = w3.Keys(); len(keys) != 2 {
		t.Fatalf("post-recovery append lost: %v", keys)
	}
}

func TestWALCorruptPayloadDropped(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Save(walProfile("codec=lzw,level=1", 1, 50e3, 99)); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(walProfile("codec=bzw,level=1", 1, 50e3, 42)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Flip a payload byte in the second record: its CRC fails, and because
	// it is the tail it truncates away.
	seg := filepath.Join(dir, "wal-00000001.log")
	b, _ := os.ReadFile(seg)
	first := int(binary.LittleEndian.Uint32(b[0:4])) + walRecordHeader
	b[first+walRecordHeader+3] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	keys := w2.Keys()
	if len(keys) != 1 {
		t.Fatalf("corrupt record not dropped: %v", keys)
	}
}

// segmentBytes is the size of the live log segments in dir.
func segmentBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), segPrefix) {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			n += info.Size()
		}
	}
	return n
}

func TestWALRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates, and compaction triggers after 3
	// segments exist.
	w, err := OpenWAL(dir, WALOptions{maxSegmentBytes: 64, compactAfterSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("codec=lzw,level=%d", i%2+1)
		if err := w.Save(walProfile(key, uint64(i), float64(40e3+i*1000), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps, segs := 0, 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), snapPrefix) {
			snaps++
		}
		if strings.HasPrefix(e.Name(), segPrefix) {
			segs++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshots on disk, want exactly 1 (older ones retired)", snaps)
	}
	if segs > 3 {
		t.Fatalf("%d segments on disk after compaction, want <= 3", segs)
	}
	if segmentBytes(t, dir) == 0 && segs > 1 {
		t.Fatal("live segments hold no bytes")
	}
	version := w.version
	w.Close()

	// Reopen: snapshot + remaining segments reproduce the exact state.
	w2, err := OpenWAL(dir, WALOptions{maxSegmentBytes: 64, compactAfterSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.version; got != version {
		t.Fatalf("version after compacted reopen = %d, want %d", got, version)
	}
	p, err := w2.Load("codec=lzw,level=2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Records[0].Metrics["time"] != 11 {
		t.Fatalf("compacted state lost newest record: %v", p.Records[0].Metrics)
	}
}

func TestWALExplicitCompactEmptiesSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 5; i++ {
		if err := w.Save(walProfile("codec=lzw,level=1", uint64(i+1), 50e3, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if segmentBytes(t, dir) == 0 {
		t.Fatal("expected live WAL bytes before compaction")
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := segmentBytes(t, dir); got != 0 {
		t.Fatalf("segment bytes after compact = %d, want 0", got)
	}
	var snap bytes.Buffer
	if err := w.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap.Bytes(), []byte(`"version":5`)) {
		t.Fatalf("snapshot missing version: %s", snap.Bytes())
	}
}

func TestMemStoreIsolation(t *testing.T) {
	s := NewMemStore()
	p := walProfile("codec=lzw,level=1", 1, 50e3, 99)
	if err := s.Save(p); err != nil {
		t.Fatal(err)
	}
	p.Records[0].Metrics["time"] = -1 // caller mutation must not leak in
	got, err := s.Load("codec=lzw,level=1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Records[0].Metrics["time"] != 99 {
		t.Fatal("Save did not copy the profile")
	}
	got.Records[0].Metrics["time"] = -2 // nor must Load leak out
	again, _ := s.Load("codec=lzw,level=1")
	if again.Records[0].Metrics["time"] != 99 {
		t.Fatal("Load did not copy the profile")
	}
}

// TestParentWALBytes pins the on-disk format against files an earlier
// build wrote (testdata/parent.log, one log segment of a sweep merge and
// live folds over two resource kinds; testdata/parent-snap.json, the
// snapshot of the state it leaves): every log record decodes and
// re-encodes to its own bytes, and the log replayed and the snapshot
// reopened both snapshot back to parent-snap.json.
func TestParentWALBytes(t *testing.T) {
	seg, err := os.ReadFile(filepath.Join("testdata", "parent.log"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join("testdata", "parent-snap.json"))
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for off := 0; off < len(seg); records++ {
		n := int(binary.LittleEndian.Uint32(seg[off:]))
		rec := seg[off : off+walRecordHeader+n]
		p, err := decodeProfile(rec[walRecordHeader:])
		if err != nil {
			t.Fatalf("record at offset %d: %v", off, err)
		}
		again, err := walRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, rec) {
			t.Fatalf("record at offset %d re-encodes as\n%s\nnot\n%s", off, again[walRecordHeader:], rec[walRecordHeader:])
		}
		off += len(rec)
	}
	if records != 24 {
		t.Fatalf("%d log records, want 24", records)
	}
	for name, file := range map[string][]byte{
		"wal-00000001.log":           seg,
		"snap-0000000000000018.json": snap,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out bytes.Buffer
		if err := s.Snapshot(&out); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if !bytes.Equal(out.Bytes(), snap) {
			t.Fatalf("%s recovers to\n%s\nnot\n%s", name, out.Bytes(), snap)
		}
	}
}

// TestRepeatedResourceKeyRefused: two records of one profile at resource
// points that share a canonical key (50000 and 50000.0000001) make a state
// no fold writes — the lattice would read their mean and a fold would
// refine only the first — so recovery refuses the snapshot holding it,
// and Save refuses the profile.
func TestRepeatedResourceKeyRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000001.json"), []byte(repeatedKeySnapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := OpenWAL(dir, WALOptions{}); err == nil {
		s.Close()
		t.Fatal("recovered a profile holding two records at one resource key")
	}
	p := walProfile("codec=lzw,level=1", 1, 50e3, 10)
	p.Records = append(p.Records, walProfile("", 0, 50e3*(1+2e-12), 30).Records...)
	if err := NewMemStore().Save(p); err == nil {
		t.Fatal("saved a profile holding two records at one resource key")
	}
}

const repeatedKeySnapshot = `{"version":1,"profiles":[{"config":"codec=lzw,level=1","version":1,"records":[` +
	`{"resources":{"bandwidth":50000},"metrics":{"time":10},"weight":1,"samples":1},` +
	`{"resources":{"bandwidth":50000.0000001},"metrics":{"time":30},"weight":1,"samples":1}]}]}`
