// Snapshot views: the read-only seam of the engine. A View is a pinned
// point-in-time answerer for some family of rectangles; Snapshottable
// is the optional interface of backends that can produce one. The
// stack threads snapshots the same way it threads queries:
//
//	AsyncQueue.Snapshot  — flushes every buffer ONCE to establish the
//	                       drain boundary, then pins the inner backend
//	LogBackend.Snapshot  — passes through (reads are not logged)
//	CacheBackend.Snapshot— passes through (the cache memoizes LIVE
//	                       answers; a snapshot's answers are frozen by
//	                       construction, so caching them buys nothing
//	                       and sharing entries with the live index
//	                       would serve post-pin answers)
//	Planner.Snapshot     — pins the primary and every mirror once and
//	                       freezes the routing table into a PlanView
//	MirrorBackend        — pins the inner (reflected) backend and keeps
//	                       rewriting rectangles at query time
//	shard.Engine         — opens an emio retention per shard disk, then
//	                       captures each shard's immutable root handles
//
// The retention-before-capture order is load-bearing: once RetainFrees
// returns, no span the captured roots reference can be reclaimed until
// the view is released, and the shard engine captures while it holds
// the shard mutexes that serialize writers, so no free can slip between
// the two.
//
// Copy-on-pin vs epoch-retired roots: both were candidates for the
// 4-sided secondaries. Copy-on-pin (what dyntop.Snapshot and
// foursided.Snapshot do) clones the node graph in host RAM — zero
// simulated I/Os, O(n/B) pointer copies — while epoch-retiring whole
// roots would make every UPDATE copy its root-to-leaf path. Measured
// on the E17 workload the clone costs microseconds per pin and nothing
// per update, so copy-on-pin wins at every update:snapshot ratio
// above ~1:1 and is what ships; the emio retention supplies the epoch
// machinery for the spans either way.
package engine

import (
	"fmt"

	"repro/internal/geom"
)

// View is a pinned point-in-time RangeSkyline answerer. Answers are
// byte-identical to what the live backend would have answered at the
// pin point, regardless of writes applied since. Release unpins the
// view — idempotent, and required: an unreleased view holds retired
// storage spans (emio deferred frees) alive forever. Concurrent
// RangeSkyline calls on one View are safe when the underlying disks
// are guarded (emio.NewConcurrentDisk), because a view's state is
// immutable.
type View interface {
	RangeSkyline(q geom.Rect) []geom.Point
	Release()
}

// Snapshottable is the optional interface of backends that can pin a
// point-in-time View of themselves. Every backend core.Open builds
// implements it; purely test-local backends need not.
type Snapshottable interface {
	Snapshot() (View, error)
}

// errNotSnapshottable reports a backend that cannot pin a view.
func errNotSnapshottable(b Backend) error {
	return fmt.Errorf("engine: backend %T does not support snapshots", b)
}

// MirrorView serves queries whose reflection is top-open from a pinned
// view of the reflected point set — the frozen counterpart of
// MirrorBackend, same rewriting at query time.
type MirrorView struct {
	ref   geom.Reflection
	inner View
}

// Serves reports whether q reflects onto the top-open family, exactly
// like the live mirror's Serves.
func (m *MirrorView) Serves(q geom.Rect) bool { return m.ref.Rect(q).IsTopOpen() }

// RangeSkyline rewrites q into the mirrored frame, queries the pinned
// inner view, and maps the answer back into increasing-x order.
func (m *MirrorView) RangeSkyline(q geom.Rect) []geom.Point {
	return m.ref.SkylineToOriginal(m.inner.RangeSkyline(m.ref.Rect(q)))
}

// Release unpins the inner view.
func (m *MirrorView) Release() { m.inner.Release() }

// Snapshot pins the mirror: the inner (reflected) backend is pinned
// and the reflection keeps being applied per query.
func (m *MirrorBackend) Snapshot() (View, error) {
	s, ok := m.inner.(Snapshottable)
	if !ok {
		return nil, errNotSnapshottable(m.inner)
	}
	v, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	return &MirrorView{ref: m.ref, inner: v}, nil
}

// Snapshot passes through: the cache memoizes live answers; snapshot
// answers are frozen by construction and must not share entries with
// the live index (a hit filled after the pin would serve a post-pin
// answer).
func (c *CacheBackend) Snapshot() (View, error) {
	s, ok := c.inner.(Snapshottable)
	if !ok {
		return nil, errNotSnapshottable(c.inner)
	}
	return s.Snapshot()
}

// Snapshot passes through: reads are never logged, so a pinned view
// needs nothing from the WAL.
func (lb *LogBackend) Snapshot() (View, error) {
	s, ok := lb.inner.(Snapshottable)
	if !ok {
		return nil, errNotSnapshottable(lb.inner)
	}
	return s.Snapshot()
}

// Snapshot establishes the drain boundary: every buffer is flushed
// ONCE — the only drain a snapshot ever costs — and the fully-applied
// inner backend is pinned. Writers that enqueue after the flush land
// beyond the boundary and are invisible to the view, exactly the
// point-in-time contract.
//
// A degraded (frozen) queue still snapshots: the flush returns the
// sticky drain error without swapping anything, and the view pins the
// applied state — every batch that failed was abandoned whole, so the
// applied state is consistent and identical to what a reopen-replay of
// the WAL reconstructs. Stranded buffered writes were never
// acknowledged as drained and are invisible, exactly like writes
// enqueued after the boundary. This is the "reads and Snapshot keep
// serving" half of the degradation contract.
func (q *AsyncQueue) Snapshot() (View, error) {
	q.Flush() //errlint:ok degraded queues pin the applied state; error stays latched for writers
	s, ok := q.inner.(Snapshottable)
	if !ok {
		return nil, errNotSnapshottable(q.inner)
	}
	return s.Snapshot()
}

// PlanView is a frozen Planner: the same routing table (top-open
// family → primary view, reflected shapes → mirror views, rest →
// primary view) over pinned views instead of live backends.
type PlanView struct {
	mirrors []*MirrorView
	views   []View // the primary's view, then the mirrors'
}

// Snapshot pins the primary and every mirror once and freezes the
// routing table. On any failure the views already pinned are released.
// The returned View is a *PlanView; the interface return type is what
// lets the wrapping layers (queue, WAL, cache) pass Snapshot calls
// through to the planner uniformly.
func (pl *Planner) Snapshot() (View, error) {
	pv := &PlanView{}
	for _, b := range pl.backends {
		s, ok := b.(Snapshottable)
		if !ok {
			pv.Release()
			return nil, errNotSnapshottable(b)
		}
		v, err := s.Snapshot()
		if err != nil {
			pv.Release()
			return nil, err
		}
		pv.views = append(pv.views, v)
	}
	for _, v := range pv.views[1:] {
		pv.mirrors = append(pv.mirrors, v.(*MirrorView))
	}
	return pv, nil
}

// Route returns the view that answers q, mirroring Planner.Route:
// top-open family to the primary view, then the first mirror whose
// reflection grounds q's top edge, then the primary view.
func (pv *PlanView) Route(q geom.Rect) View {
	if !Classify(q).TopOpenFamily() {
		for _, m := range pv.mirrors {
			if m.Serves(q) {
				return m
			}
		}
	}
	return pv.views[0]
}

// RangeSkyline answers q through the routed view.
func (pv *PlanView) RangeSkyline(q geom.Rect) []geom.Point {
	return pv.Route(q).RangeSkyline(q)
}

// Release unpins every view. Idempotent (each underlying retention
// release is).
func (pv *PlanView) Release() {
	for _, v := range pv.views {
		v.Release()
	}
}

// retirementCounter is what a storage unit (the sharded engine summing
// its shard disks) reports about snapshot retirement: blocks freed by
// the live index but deferred for open retentions, and the number of
// open retentions.
type retirementCounter interface {
	DeferredBlocks() int
	Retained() int
}

// DeferredBlocks sums the deferred-free queues of the primary's and
// every mirror's storage — blocks the live index has retired that are
// held alive for open snapshots. Zero once every snapshot is released:
// the no-leak invariant of the generation accounting.
func (pl *Planner) DeferredBlocks() int {
	return pl.sumRetirement(retirementCounter.DeferredBlocks)
}

// Retained sums the open retentions of the primary's and every
// mirror's storage (one per storage unit per unreleased snapshot).
func (pl *Planner) Retained() int {
	return pl.sumRetirement(retirementCounter.Retained)
}

func (pl *Planner) sumRetirement(get func(retirementCounter) int) int {
	total := 0
	for _, b := range pl.backends {
		if m, ok := b.(*MirrorBackend); ok {
			b = m.Inner()
		}
		if rc, ok := b.(retirementCounter); ok {
			total += get(rc)
		}
	}
	return total
}

// assert the stack's layers all thread snapshots.
var (
	_ Snapshottable = (*MirrorBackend)(nil)
	_ Snapshottable = (*CacheBackend)(nil)
	_ Snapshottable = (*LogBackend)(nil)
	_ Snapshottable = (*AsyncQueue)(nil)
	_ Snapshottable = (*Planner)(nil)
	_ View          = (*PlanView)(nil)
	_ View          = (*MirrorView)(nil)
)
