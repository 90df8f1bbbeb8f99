package perfstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func walProfile(key string, version uint64, bw, tm float64) *profile {
	return &profile{
		ConfigKey: key,
		Version:   version,
		Records: []profileRecord{{
			Resources: map[string]float64{"bandwidth": bw},
			Metrics:   map[string]float64{"time": tm},
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
	if w.WalBytes() == 0 && segs > 1 {
		t.Fatal("WalBytes claims empty WAL with live segments")
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
	if w.WalBytes() == 0 {
		t.Fatal("expected live WAL bytes before compaction")
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := w.WalBytes(); got != 0 {
		t.Fatalf("WalBytes after compact = %d, want 0", got)
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
