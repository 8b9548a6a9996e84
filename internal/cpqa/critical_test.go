package cpqa

import (
	"math/rand"
	"testing"
)

// TestCriticalPathAllocatesNothing: the critical-record calls the §4.2
// structure makes for every child of every node on an update path —
// size, admit, pin and unpin — cost no heap allocation, on queues whose
// anatomy covers F, L, C, B and dirty deques.
func TestCriticalPathAllocatesNothing(t *testing.T) {
	d := newDisk()
	rng := rand.New(rand.NewSource(7))
	var parts []*Queue
	for i := 0; i < 12; i++ {
		// Overlapping key ranges: catenating a part partially attrites
		// its left neighbour, which leaves dirty deques behind.
		q := New(d, 2)
		key := int64(i * 40)
		for j := 0; j < 20+rng.Intn(60); j++ {
			key += 1 + rng.Int63n(3)
			q = q.InsertAndAttrite(Elem{Key: key})
		}
		parts = append(parts, q)
	}
	qs := append([]*Queue(nil), parts...)
	for i := 1; i < len(parts); i++ {
		c := CatenateAll(parts[:i+1])
		qs = append(qs, c, c.BiasUntilReady())
	}
	dirty := 0
	for i, q := range qs {
		if q.k() > 0 {
			dirty++
		}
		words := q.CriticalWords()
		if words <= 0 {
			t.Fatalf("queue %d: CriticalWords = %d, want > 0", i, words)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if q.CriticalWords() != words {
				t.Fatalf("queue %d: CriticalWords changed between calls", i)
			}
			q.AdmitCritical()
			q.PinCritical()
			q.UnpinCritical()
		})
		if allocs != 0 {
			t.Errorf("queue %d: CriticalWords/AdmitCritical/PinCritical/UnpinCritical allocated %v times per run, want 0", i, allocs)
		}
	}
	if dirty == 0 {
		t.Fatalf("no sampled queue has a dirty deque; the test does not cover the D spans")
	}
	// Every pin was released: DropCache keeps pinned frames only.
	d.DropCache()
	for i, q := range qs {
		spans, n := q.criticalSpans()
		for _, s := range spans[:n] {
			if d.Resident(s.block) {
				t.Fatalf("queue %d: critical block %d still pinned", i, s.block)
			}
		}
	}
}
