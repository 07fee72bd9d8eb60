package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"darwin/internal/faults"
)

// TestMapPanicIsolation: an injected panic while mapping one read must
// surface as that read's MapResult.Err — the batch completes and every
// other read maps normally.
func TestMapPanicIsolation(t *testing.T) {
	defer faults.Default.Reset()
	ref := testGenome(t, 80000, 403)
	d, err := New(ref, DefaultConfig(11, 400, 18))
	if err != nil {
		t.Fatal(err)
	}
	seqs := simReads(t, ref, 6, 404)
	clean, err := d.Map(context.Background(), seqs, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.Default.Enable("core/map_read=every=3,panic=poisoned read"); err != nil {
		t.Fatal(err)
	}
	got, err := d.Map(context.Background(), seqs, WithWorkers(1))
	faults.Default.Reset()
	if err != nil {
		t.Fatalf("Map must not fail the batch on a per-read panic: %v", err)
	}
	for i := range got {
		if (i+1)%3 == 0 { // every=3 fires on calls 3, 6, ...
			if got[i].Err == nil || !strings.Contains(got[i].Err.Error(), "panicked") {
				t.Errorf("read %d: Err = %v, want contained panic", i, got[i].Err)
			}
			if got[i].Alignments != nil {
				t.Errorf("read %d: panicked read still has alignments", i)
			}
			continue
		}
		if got[i].Err != nil {
			t.Errorf("read %d: unexpected Err %v (blast radius exceeded one read)", i, got[i].Err)
		}
		if len(got[i].Alignments) != len(clean[i].Alignments) {
			t.Errorf("read %d: %d alignments with a neighbor panicking, want %d",
				i, len(got[i].Alignments), len(clean[i].Alignments))
		}
	}
}

// TestMapPerReadDeadline: a read held past WithDeadlinePerRead (via an
// injected delay) fails individually with context.DeadlineExceeded;
// the rest of the batch is unaffected.
func TestMapPerReadDeadline(t *testing.T) {
	defer faults.Default.Reset()
	ref := testGenome(t, 80000, 405)
	d, err := New(ref, DefaultConfig(11, 400, 18))
	if err != nil {
		t.Fatal(err)
	}
	seqs := simReads(t, ref, 5, 406)
	// Delay only the third read's map call well past the budget. The
	// margins are deliberately wide (a normal read maps in well under
	// 1s even with the race detector's overhead, and 4s is well past
	// the budget) so the test is timing-robust.
	if err := faults.Default.Enable("core/map_read=after=2,times=1,delay=4s"); err != nil {
		t.Fatal(err)
	}
	got, err := d.Map(context.Background(), seqs, WithWorkers(1), WithDeadlinePerRead(time.Second))
	faults.Default.Reset()
	if err != nil {
		t.Fatalf("Map must not fail the batch on a per-read deadline: %v", err)
	}
	for i := range got {
		if i == 2 {
			if !errors.Is(got[i].Err, context.DeadlineExceeded) {
				t.Errorf("read 2: Err = %v, want DeadlineExceeded", got[i].Err)
			}
			continue
		}
		if got[i].Err != nil {
			t.Errorf("read %d: unexpected Err %v", i, got[i].Err)
		}
	}
}

// TestMapProgress: the WithProgress callback fires once per read, is
// monotonic, and ends at (total, total) regardless of worker count.
func TestMapProgress(t *testing.T) {
	ref := testGenome(t, 80000, 407)
	d, err := New(ref, DefaultConfig(11, 400, 18))
	if err != nil {
		t.Fatal(err)
	}
	seqs := simReads(t, ref, 7, 408)
	for _, workers := range []int{1, 3} {
		var calls []int
		_, err := d.Map(context.Background(), seqs, WithWorkers(workers),
			WithProgress(func(done, total int) {
				if total != len(seqs) {
					t.Errorf("workers=%d: total = %d, want %d", workers, total, len(seqs))
				}
				calls = append(calls, done)
			}))
		if err != nil {
			t.Fatal(err)
		}
		if len(calls) != len(seqs) {
			t.Fatalf("workers=%d: %d progress calls for %d reads", workers, len(calls), len(seqs))
		}
		for i, done := range calls {
			if done != i+1 {
				t.Fatalf("workers=%d: progress not monotonic: %v", workers, calls)
			}
		}
	}
}

// TestMapInjectedFaultError: an error-action fault at core/map_read is
// confined to the read it fired on and is recognizable via IsInjected.
func TestMapInjectedFaultError(t *testing.T) {
	defer faults.Default.Reset()
	ref := testGenome(t, 80000, 409)
	d, err := New(ref, DefaultConfig(11, 400, 18))
	if err != nil {
		t.Fatal(err)
	}
	seqs := simReads(t, ref, 4, 410)
	if err := faults.Default.Enable("core/map_read=after=1,times=1,error=bad read"); err != nil {
		t.Fatal(err)
	}
	got, err := d.Map(context.Background(), seqs, WithWorkers(1))
	faults.Default.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if !faults.IsInjected(got[1].Err) {
		t.Errorf("read 1: Err = %v, want injected fault", got[1].Err)
	}
	for _, i := range []int{0, 2, 3} {
		if got[i].Err != nil {
			t.Errorf("read %d: unexpected Err %v", i, got[i].Err)
		}
	}
}
