package emio

import (
	"math/rand"
	"testing"
)

// refTable is a slice-backed model of the FrameTable discipline:
// frames most recently used first, eviction of the least recently used
// unpinned frame while over capacity, pins never evicted.
type refTable struct {
	cap     int
	frames  []Frame // ID, Dirty, Pins only
	evicted []uint64
}

func (r *refTable) find(id uint64) int {
	for i := range r.frames {
		if r.frames[i].ID == id {
			return i
		}
	}
	return -1
}

func (r *refTable) toFront(i int) {
	f := r.frames[i]
	copy(r.frames[1:i+1], r.frames[:i])
	r.frames[0] = f
}

func (r *refTable) evictAt(i int) {
	r.evicted = append(r.evicted, r.frames[i].ID)
	r.frames = append(r.frames[:i], r.frames[i+1:]...)
}

func (r *refTable) admit(id uint64, dirty bool, pins int) {
	r.frames = append([]Frame{{ID: id, Dirty: dirty, Pins: pins}}, r.frames...)
	for len(r.frames) > r.cap {
		victim := -1
		for i := len(r.frames) - 1; i >= 0; i-- {
			if r.frames[i].Pins == 0 {
				victim = i
				break
			}
		}
		if victim < 0 {
			break
		}
		r.evictAt(victim)
	}
}

func (r *refTable) evictAll() {
	for i := len(r.frames) - 1; i >= 0; i-- {
		if r.frames[i].Pins == 0 {
			r.evictAt(i)
		}
	}
}

func (r *refTable) counts() (pinned, unpinned int) {
	for _, f := range r.frames {
		if f.Pins > 0 {
			pinned++
		} else {
			unpinned++
		}
	}
	return pinned, unpinned
}

// TestFrameTableFreeListMatchesReference: recycling frames dropped by
// eviction and Remove must not change what the table does. Mixed
// admit/touch/pin/unpin/evict/Remove/re-admit sequences, capacity 0
// (M < B) included, must give the reference model's eviction order,
// Len/Pinned/Unpinned counts and per-frame state after every step.
func TestFrameTableFreeListMatchesReference(t *testing.T) {
	for capacity := 0; capacity <= 4; capacity++ {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(capacity)))
			var evicted []uint64
			ft := NewFrameTable(capacity, func(f *Frame) { evicted = append(evicted, f.ID) })
			ref := &refTable{cap: capacity}
			const ids = 8 // a small id space, so removed and evicted ids come back
			for step := 0; step < 400; step++ {
				id := uint64(rng.Intn(ids) + 1)
				i := ref.find(id)
				switch op := rng.Intn(7); {
				case i < 0 && op < 4:
					dirty, pins := rng.Intn(2) == 0, 0
					if rng.Intn(4) == 0 {
						pins = 1
					}
					f := ft.Admit(id, dirty, pins)
					ref.admit(id, dirty, pins)
					if ref.find(id) >= 0 && (f.ID != id || f.Dirty != dirty || f.Pins != pins) {
						t.Fatalf("cap %d seed %d step %d: admitted frame %+v, want id %d dirty %v pins %d",
							capacity, seed, step, *f, id, dirty, pins)
					}
				case i < 0:
					// Not resident: nothing else applies.
				case op == 0:
					dirty := rng.Intn(2) == 0
					ft.Touch(ft.Get(id), dirty)
					ref.frames[i].Dirty = ref.frames[i].Dirty || dirty
					ref.toFront(i)
				case op == 1:
					ft.Pin(ft.Get(id))
					ref.frames[i].Pins++
					ref.toFront(i)
				case op == 2 && ref.frames[i].Pins > 0:
					ft.Unpin(ft.Get(id))
					ref.frames[i].Pins--
				case op == 3 || op == 4:
					ft.Remove(ft.Get(id))
					ref.frames = append(ref.frames[:i], ref.frames[i+1:]...)
				case op == 5 && rng.Intn(8) == 0:
					ft.EvictAll()
					ref.evictAll()
				}
				pinned, unpinned := ref.counts()
				if ft.Len() != len(ref.frames) || ft.Pinned() != pinned || ft.Unpinned() != unpinned {
					t.Fatalf("cap %d seed %d step %d: len/pinned/unpinned = %d/%d/%d, want %d/%d/%d",
						capacity, seed, step, ft.Len(), ft.Pinned(), ft.Unpinned(), len(ref.frames), pinned, unpinned)
				}
				if len(evicted) != len(ref.evicted) {
					t.Fatalf("cap %d seed %d step %d: evicted %v, want %v", capacity, seed, step, evicted, ref.evicted)
				}
				for k := range evicted {
					if evicted[k] != ref.evicted[k] {
						t.Fatalf("cap %d seed %d step %d: eviction order %v, want %v", capacity, seed, step, evicted, ref.evicted)
					}
				}
				for _, rf := range ref.frames {
					f := ft.Get(rf.ID)
					if f == nil || f.ID != rf.ID || f.Dirty != rf.Dirty || f.Pins != rf.Pins {
						t.Fatalf("cap %d seed %d step %d: frame %d = %+v, want %+v", capacity, seed, step, rf.ID, f, rf)
					}
				}
				for k := uint64(1); k <= ids; k++ {
					if ref.find(k) < 0 && ft.Get(k) != nil {
						t.Fatalf("cap %d seed %d step %d: id %d resident, want absent", capacity, seed, step, k)
					}
				}
			}
		}
	}
}

// TestFrameTableAdmitAfterRemoveAllocatesNothing: a frame dropped by
// Remove is reused by the next Admit.
func TestFrameTableAdmitAfterRemoveAllocatesNothing(t *testing.T) {
	ft := NewFrameTable(4, nil)
	ft.Remove(ft.Admit(1, false, 0))
	allocs := testing.AllocsPerRun(1000, func() {
		ft.Remove(ft.Admit(1, true, 0))
	})
	if allocs != 0 {
		t.Fatalf("Admit after Remove allocated %v times per run, want 0", allocs)
	}
}

// TestDiskWarmAccessAllocatesNothing: once the frame table is full, a
// Read/Write/Admit costs no heap allocation, whether it hits or its
// miss evicts a frame that the admission then reuses.
func TestDiskWarmAccessAllocatesNothing(t *testing.T) {
	d := NewDisk(Config{B: 4, M: 16}) // 4 frames
	var ids []BlockID
	for i := 0; i < 12; i++ {
		ids = append(ids, d.Alloc())
	}
	hot := ids[len(ids)-1] // resident
	hits := testing.AllocsPerRun(1000, func() {
		d.Read(hot)
		d.Write(hot)
		d.Admit(hot)
	})
	if hits != 0 {
		t.Errorf("warm Read/Write/Admit hit allocated %v times per run, want 0", hits)
	}
	i := 0
	misses := testing.AllocsPerRun(1000, func() {
		// 12 blocks cycled through 4 frames: every access misses.
		d.Read(ids[i%12])
		d.Write(ids[(i+1)%12])
		d.Admit(ids[(i+2)%12])
		i += 3
	})
	if misses != 0 {
		t.Errorf("warm Read/Write/Admit miss allocated %v times per run, want 0", misses)
	}
}
