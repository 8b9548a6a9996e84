// FrameTable: the LRU frame cache extracted from Disk so that every
// cache of fixed-size storage units in the repository shares one
// eviction and pin discipline. Disk uses it for its simulated block
// frames; internal/pager uses it for the 4 KB page frames of the real
// file-backed store. The discipline is exactly the one the paper's
// I/O accounting rests on:
//
//   - frames form an LRU list; admitting past capacity evicts the
//     least recently used UNPINNED frame (the eviction callback sees
//     it before it is dropped, so a dirty frame can be written back);
//   - pinned frames are never evicted — the cache may overflow by
//     pinned frames only, mirroring the paper's assumption M = Ω(ℓb)
//     that the critical records always fit in memory;
//   - pins nest, and the pinned/unpinned population counts are
//     maintained exactly, so owners can assert the accounting that the
//     paper's amortized bounds rest on.
//
// Frames dropped by eviction or Remove go on a free list that Admit
// draws from, so a table in steady state (every admission paid for by
// an eviction) allocates nothing.
//
// The table is not safe for concurrent use; owners guard it with their
// own mutex (Disk's guarded mode, the pager's lock).
package emio

// Frame is one cache slot of a FrameTable, holding the residency state
// of one fixed-size storage unit (a simulated block, a pager page).
// Owners attach payloads by keying on ID in a side table.
//
// A *Frame is valid only while its unit is resident. Once the frame is
// evicted (by Admit, including an Admit that evicts the frame it just
// admitted when the capacity is 0, or by EvictAll) or dropped by
// Remove, the table recycles it for a later Admit of another unit:
// owners must not keep it, and re-fetch with Get instead.
type Frame struct {
	// ID names the cached unit.
	ID uint64
	// Dirty marks content that must be written back on eviction.
	Dirty bool
	// Pins counts nested pins; a pinned frame is never evicted.
	Pins int

	prev *Frame // LRU list; more recently used towards head
	next *Frame // also links the free list
}

// FrameTable is an LRU table of resident frames with a pin discipline.
type FrameTable struct {
	resident map[uint64]*Frame
	head     *Frame // most recently used
	tail     *Frame // least recently used
	unpinned int    // resident frames with Pins == 0
	pinned   int    // resident frames with Pins > 0
	capacity int    // total frames permitted (pins may overflow it)
	onEvict  func(*Frame)
	free     *Frame // dropped frames, linked through next, reused by Admit
}

// NewFrameTable returns an empty table holding up to capacity frames.
// onEvict, which may be nil, is called with each frame chosen for
// eviction (and by EvictAll) before the frame is dropped — the hook
// where a dirty frame's write-back happens.
func NewFrameTable(capacity int, onEvict func(*Frame)) *FrameTable {
	return &FrameTable{
		resident: make(map[uint64]*Frame),
		capacity: capacity,
		onEvict:  onEvict,
	}
}

// Len returns the number of resident frames.
func (t *FrameTable) Len() int { return len(t.resident) }

// Pinned returns the number of resident frames with at least one pin.
func (t *FrameTable) Pinned() int { return t.pinned }

// Unpinned returns the number of resident frames with no pins.
func (t *FrameTable) Unpinned() int { return t.unpinned }

// Get returns the resident frame for id, or nil. Residency is not a
// use; callers that mean "access" follow up with Touch.
func (t *FrameTable) Get(id uint64) *Frame { return t.resident[id] }

// Touch moves a resident frame to the most-recently-used position and
// ORs dirty into its dirty bit.
func (t *FrameTable) Touch(f *Frame, dirty bool) {
	t.unlink(f)
	t.pushFront(f)
	if dirty {
		f.Dirty = true
	}
}

// Admit inserts a frame for id at the most-recently-used position and
// evicts least-recently-used unpinned frames while the table is over
// capacity. pins > 0 admits the frame already pinned (fetch-and-pin
// must be atomic so the new frame cannot be chosen as its own eviction
// victim when the cache is saturated with pins). The caller guarantees
// id is not resident.
//
// The frame is a recycled one when the free list holds any. The
// returned pointer is valid until the frame is evicted or removed; with
// pins == 0 and capacity 0 that is already the case on return.
func (t *FrameTable) Admit(id uint64, dirty bool, pins int) *Frame {
	f := t.free
	if f != nil {
		t.free = f.next
	} else {
		f = new(Frame)
	}
	*f = Frame{ID: id, Dirty: dirty, Pins: pins}
	t.pushFront(f)
	t.resident[id] = f
	if pins > 0 {
		t.pinned++
	} else {
		t.unpinned++
	}
	for len(t.resident) > t.capacity {
		victim := t.lruUnpinned()
		if victim == nil {
			// Everything is pinned; the table is allowed to overflow
			// by pinned frames only (M = Ω(ℓb)).
			break
		}
		t.evict(victim)
	}
	return f
}

// Pin adds one pin to a resident frame and makes it most recently used.
func (t *FrameTable) Pin(f *Frame) {
	t.unlink(f)
	t.pushFront(f)
	if f.Pins == 0 {
		t.unpinned--
		t.pinned++
	}
	f.Pins++
}

// Unpin releases one pin.
func (t *FrameTable) Unpin(f *Frame) {
	f.Pins--
	if f.Pins == 0 {
		t.pinned--
		t.unpinned++
	}
}

// Remove drops a resident frame without the eviction callback — the
// path for freeing a dead unit whose content must NOT be written back.
// f is recycled and must not be used afterwards.
func (t *FrameTable) Remove(f *Frame) {
	if f.Pins > 0 {
		t.pinned--
	} else {
		t.unpinned--
	}
	t.drop(f)
}

// EvictAll evicts every unpinned frame (running the eviction callback
// on each), least recently used first. Pinned frames stay resident.
func (t *FrameTable) EvictAll() {
	for f := t.tail; f != nil; {
		prev := f.prev
		if f.Pins == 0 {
			t.evict(f)
		}
		f = prev
	}
}

// evict runs the callback and drops the (unpinned) frame.
func (t *FrameTable) evict(f *Frame) {
	if t.onEvict != nil {
		t.onEvict(f)
	}
	t.unpinned--
	t.drop(f)
}

// drop unlinks a frame, forgets its id and pushes it on the free list.
func (t *FrameTable) drop(f *Frame) {
	t.unlink(f)
	delete(t.resident, f.ID)
	f.next = t.free
	t.free = f
}

// lruUnpinned returns the least recently used unpinned frame, or nil.
func (t *FrameTable) lruUnpinned() *Frame {
	for f := t.tail; f != nil; f = f.prev {
		if f.Pins == 0 {
			return f
		}
	}
	return nil
}

func (t *FrameTable) pushFront(f *Frame) {
	f.prev = nil
	f.next = t.head
	if t.head != nil {
		t.head.prev = f
	}
	t.head = f
	if t.tail == nil {
		t.tail = f
	}
}

func (t *FrameTable) unlink(f *Frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		t.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		t.tail = f.prev
	}
	f.prev, f.next = nil, nil
}
