package expt

import (
	"bytes"
	"testing"

	"tunable/internal/avis"
	"tunable/internal/perfstore"
	"tunable/internal/resource"
)

// TestDriftOnlineRecoversOfflineStuck is the closing-the-loop experiment:
// the prior database was profiled at a single bandwidth point, so when the
// seeded fault schedule dips the link the offline framework is
// structurally blind — its validity band on bandwidth is unbounded, no
// trigger fires, and it serves level 4 past the deadline until the run
// ends. The online run folds achieved image metrics back into a
// WAL-backed perfstore, the model-drift trigger wakes the scheduler, and
// the framework re-converges under the deadline. Afterwards the WAL is
// reopened as a restarted process would and must recover the refined
// model byte-for-byte.
func TestDriftOnlineRecoversOfflineStuck(t *testing.T) {
	const seed = 42
	offline, err := RunDriftOffline(seed)
	if err != nil {
		t.Fatal(err)
	}
	// The offline framework must be stuck, not merely slow: zero switches,
	// still at the top resolution level, every post-dip image late.
	if offline.Switches != 0 {
		t.Fatalf("offline run switched %d times; the single-point prior should leave it blind", offline.Switches)
	}
	if offline.Final["l"].I != 4 {
		t.Fatalf("offline final %s, want level 4", offline.Final.Key())
	}
	offHits, offPost := DeadlineHits(offline)
	if offPost == 0 {
		t.Fatal("no post-dip images; dip timing is wrong")
	}
	if offHits != 0 {
		t.Fatalf("offline met the deadline %d/%d times post-dip; should be stuck past it", offHits, offPost)
	}

	dir := t.TempDir()
	wal, err := perfstore.OpenWAL(dir, perfstore.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	online, ps, err := RunDriftOnline(seed, wal)
	if err != nil {
		t.Fatal(err)
	}
	if online.Switches == 0 {
		t.Fatal("online run never adapted")
	}
	if online.Final["l"].I >= 4 {
		t.Fatalf("online final %s; should have backed off resolution", online.Final.Key())
	}
	onHits, _ := DeadlineHits(online)
	if onHits <= offHits {
		t.Fatalf("online deadline hits %d not better than offline %d", onHits, offHits)
	}
	if online.Total >= offline.Total {
		t.Fatalf("online total %v not better than offline %v", online.Total, offline.Total)
	}

	// The store must have learned the real cost of the configuration the
	// offline run stayed stuck on.
	dipRes := resource.Vector{resource.CPU: driftShare, resource.Bandwidth: driftDipBW}
	predBefore, err := ps.Predict(offline.Final, dipRes)
	if err != nil {
		t.Fatal(err)
	}
	if predBefore["transmit_time"] <= DriftDeadline {
		t.Fatalf("refined level-4 transmit %.2fs still under the %.0fs deadline; nothing was learned",
			predBefore["transmit_time"], DriftDeadline)
	}

	// Restart: snapshot, close, reopen from disk. The recovered
	// store must be byte-identical under Snapshot (version included) and
	// predict identically.
	var before bytes.Buffer
	if err := wal.Snapshot(&before); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	wal2, err := perfstore.OpenWAL(dir, perfstore.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := wal2.Snapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("snapshot not byte-stable across restart:\nbefore %d bytes\nafter  %d bytes", before.Len(), after.Len())
	}
	prior, err := Fig6bDB()
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := perfstore.New(avis.Spec(), prior, wal2, perfstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	predAfter, err := ps2.Predict(offline.Final, dipRes)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range predBefore {
		if predAfter[name] != v {
			t.Fatalf("recovered prediction %s=%v, want %v", name, predAfter[name], v)
		}
	}
}

// TestDriftFigure smoke-tests the rendered comparison figure.
func TestDriftFigure(t *testing.T) {
	fig, offline, online, err := DriftWith(7, perfstore.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "drift" || fig.Rec == nil || len(fig.Notes) == 0 {
		t.Fatalf("malformed figure: %+v", fig)
	}
	if online.Total >= offline.Total {
		t.Fatalf("online %v !< offline %v at seed 7", online.Total, offline.Total)
	}
}
