package perfstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tunable/internal/perfdb"
)

// FuzzWALRecover feeds arbitrary bytes to OpenWAL as the one file of a
// store directory — the one on-disk form of the performance model. Byte 0
// picks the file: even, the snapshot; odd, the last log segment. The rest
// of the input is that file. Recovery must never panic: it either errors,
// or it recovers a state that a reopen reproduces byte for byte, holds at
// most one record per two input bytes (the allocation bound of this
// decoder), files no records under an empty key (as log replay refuses
// to), and whose every key either compiles to a lattice or errors, over no
// prior and over testPrior (so the fuzzer reaches the merge of prior and
// overlay records, not only the overlay-only compile).
func FuzzWALRecover(f *testing.F) {
	dir := f.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []*profile{
		walProfile("codec=lzw,level=1", 1, 50e3, 99),
		walProfile("codec=bzw,level=2", 1, 60e3, 42),
	} {
		if err := w.Save(p); err != nil {
			f.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := w.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	w.Close()
	seg, err := os.ReadFile(filepath.Join(dir, "wal-00000001.log"))
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(seg)
	flipped[4] ^= 0xFF // the first record's CRC
	for _, file := range [][]byte{seg, seg[:len(seg)-5], flipped} {
		f.Add(append([]byte{1}, file...))
	}
	for _, file := range [][]byte{
		snap.Bytes(),
		[]byte(`{"version":1,"profiles":[null]}`),
		[]byte(`{"version":1,"profiles":[{"config":"","version":1,"records":[{"resources":{"bandwidth":1},"metrics":{"time":1},"weight":1,"samples":1}]}]}`),
		[]byte(repeatedKeySnapshot),
	} {
		f.Add(append([]byte{0}, file...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dir := t.TempDir()
		name := "snap-0000000000000001.json"
		if data[0]&1 == 1 {
			name = "wal-00000001.log"
		}
		if err := os.WriteFile(filepath.Join(dir, name), data[1:], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			return // malformed input must error, and did
		}
		records := 0
		for k, p := range s.profiles {
			if k == "" && len(p.Records) > 0 {
				t.Fatal("recovered records filed under no configuration key")
			}
			records += len(p.Records)
		}
		if records > len(data)/2 {
			t.Fatalf("recovered %d records from %d bytes", records, len(data))
		}
		app := testApp(t)
		for _, prior := range []*perfdb.DB{nil, testPrior(t, app)} {
			ps, err := New(app, prior, s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range s.Keys() {
				if l, err := ps.Lattice(k); err == nil && l == nil {
					t.Fatalf("key %q: neither a lattice nor an error", k)
				}
			}
		}
		var first bytes.Buffer
		if err := s.Snapshot(&first); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("reopen of a recovered store: %v", err)
		}
		defer again.Close()
		var second bytes.Buffer
		if err := again.Snapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("reopen changed the state:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
