// Package engine defines the query-execution seam of the repository: a
// Backend interface every range skyline engine implements, a Figure-2
// shape classifier, and a small Planner that routes each query rectangle
// to the primary backend or a mirror and fans updates out to all of them.
//
// The paper's structures divide the seven Figure-2 query shapes into two
// families. The top-open family (any rectangle whose top edge is
// grounded: top-open, dominance, contour, whole-plane) is answered by
// the Theorem 1/4 structures in O(log) I/Os; everything
// with a bounded top edge (4-sided, left-open, right-open, bottom-open,
// anti-dominance) needs the Theorem 6 structure, whose Ω((n/B)^ε) cost
// is optimal at linear space by Theorem 5. The primary backend — the
// sharded engine (internal/shard), one shard or many — carries both
// families and routes each rectangle to the right structure itself.
//
// One refinement cuts across the two families: a MirrorBackend holds a
// top-open structure over the transposed (x↔y) point set, and because
// the transpose preserves dominance, it serves every rectangle whose
// RIGHT edge is grounded — right-open queries and the unnamed
// right-grounded shapes — in the top-open bounds. The planner offers
// those rectangles to the mirrors before falling back to the primary.
// The remaining bounded-top shapes (4-sided, left-open, bottom-open,
// anti-dominance) stay on the primary's Theorem 6 structures by
// necessity, not omission: no other axis reflection preserves
// dominance, and Theorem 5's lower bound pins them to Ω((n/B)^ε) at
// linear space.
//
// Updates flow through the same seam: Insert/Delete/BatchInsert/
// BatchDelete apply to the primary and every mirror, so all of them
// index the same point set. Delete consults the primary first and
// touches the mirrors only after it confirms presence, so a miss never
// mutates any backend (see core.DB.Delete's regression test).
package engine

import (
	"fmt"

	"repro/internal/emio"
	"repro/internal/geom"
)

// Backend is one range skyline engine: a structure (or a composite, like
// the sharded engine) that answers some family of Figure-2 rectangles
// and, when dynamic, accepts single and batched updates. Static backends
// return an error from every update method without mutating anything.
type Backend interface {
	// RangeSkyline reports the maximal points of P ∩ q in
	// increasing-x order.
	RangeSkyline(q geom.Rect) []geom.Point
	// Insert adds a point (general position is the caller's contract).
	Insert(p geom.Point) error
	// Delete removes a point, reporting whether it was present. A miss
	// must not mutate the backend.
	Delete(p geom.Point) (bool, error)
	// BatchInsert adds many points, amortizing per-call overhead
	// (lock acquisitions, fan-out) across the batch.
	BatchInsert(pts []geom.Point) error
	// BatchDelete removes many points, reporting how many were
	// present and removed.
	BatchDelete(pts []geom.Point) (int, error)
	// Stats returns the backend's I/O counters since the last
	// ResetStats.
	Stats() emio.Stats
	// ResetStats zeroes the backend's I/O counters.
	ResetStats()
}

// Shape names the seven query rectangle shapes of Figure 2 plus the
// general 4-sided rectangle of Figure 1b.
type Shape int

const (
	// FourSided is a rectangle bounded on all four sides (Figure 1b).
	FourSided Shape = iota
	// TopOpenShape is [x1,x2] × [y,∞) (Figure 2a).
	TopOpenShape
	// RightOpenShape is [x,∞) × [y1,y2] (Figure 2b).
	RightOpenShape
	// BottomOpenShape is [x1,x2] × (-∞,y] (Figure 2c).
	BottomOpenShape
	// LeftOpenShape is (-∞,x] × [y1,y2] (Figure 2d).
	LeftOpenShape
	// DominanceShape is [x,∞) × [y,∞) (Figure 2e).
	DominanceShape
	// AntiDominanceShape is (-∞,x] × (-∞,y] (Figure 2f).
	AntiDominanceShape
	// ContourShape is (-∞,x] × (-∞,∞) (Figure 2g).
	ContourShape
	// WholePlane is (-∞,∞) × (-∞,∞): the skyline of the whole set.
	WholePlane
)

var shapeNames = map[Shape]string{
	FourSided:          "4-sided",
	TopOpenShape:       "top-open",
	RightOpenShape:     "right-open",
	BottomOpenShape:    "bottom-open",
	LeftOpenShape:      "left-open",
	DominanceShape:     "dominance",
	AntiDominanceShape: "anti-dominance",
	ContourShape:       "contour",
	WholePlane:         "whole-plane",
}

func (s Shape) String() string { return shapeNames[s] }

// Classify names the Figure-2 shape of q from its grounded sides.
func Classify(q geom.Rect) Shape {
	left := q.X1 == geom.NegInf
	right := q.X2 == geom.PosInf
	bottom := q.Y1 == geom.NegInf
	top := q.Y2 == geom.PosInf
	switch {
	case left && right && bottom && top:
		return WholePlane
	case left && top && bottom:
		return ContourShape
	case right && top && !left && !bottom:
		return DominanceShape
	case left && bottom && !right && !top:
		return AntiDominanceShape
	case top && !left && !right && !bottom:
		return TopOpenShape
	case bottom && !left && !right && !top:
		return BottomOpenShape
	case left && !right && !top && !bottom:
		return LeftOpenShape
	case right && !left && !top && !bottom:
		return RightOpenShape
	default:
		// Remaining grounded combinations (e.g. left+right, or
		// bottom+right) have no Figure-2 name; they are answered as
		// general rectangles.
		if top {
			return TopOpenShape
		}
		return FourSided
	}
}

// TopOpenFamily reports whether the shape is answerable by the top-open
// structures (Theorems 1 and 4): exactly the rectangles whose top edge
// is grounded.
func (s Shape) TopOpenFamily() bool {
	switch s {
	case TopOpenShape, DominanceShape, ContourShape, WholePlane:
		return true
	}
	return false
}

// Planner routes queries to the primary backend or a mirror and fans
// updates out to all of them. It is immutable after NewPlanner, so
// queries and updates inherit whatever concurrency the backends
// support.
//
// Routing order: the top-open family goes to the primary; everything
// else is offered to the mirrors (a mirror takes a rectangle when its
// reflection is top-open — the transpose mirror takes the whole
// grounded-right-edge family, O(log) instead of the Theorem 6
// Ω((n/B)^ε)); what remains goes to the primary. Bottom-open, left-open
// and anti-dominance rectangles never match a mirror: the only
// dominance-preserving reflection is the transpose, and Theorem 5
// proves those shapes are stuck on the general structure at linear
// space.
type Planner struct {
	mirrors  []*MirrorBackend
	backends []Backend // the primary, then the mirrors
}

// NewPlanner routes over primary, which must answer every rectangle
// shape, and the mirrored fast paths, consulted in order.
func NewPlanner(primary Backend, mirrors ...*MirrorBackend) *Planner {
	pl := &Planner{mirrors: mirrors, backends: []Backend{primary}}
	for _, m := range mirrors {
		pl.backends = append(pl.backends, m)
	}
	return pl
}

// Backends returns the primary followed by the mirrors. The primary is
// the backend Delete consults first.
func (pl *Planner) Backends() []Backend { return pl.backends }

// Route returns the backend that should answer q: the primary for the
// top-open family, then the first mirror whose reflection grounds q's
// top edge, then the primary.
func (pl *Planner) Route(q geom.Rect) Backend {
	if !Classify(q).TopOpenFamily() {
		for _, m := range pl.mirrors {
			if m.Serves(q) {
				return m
			}
		}
	}
	return pl.backends[0]
}

// Mirrors returns the mirrored fast paths in routing order.
func (pl *Planner) Mirrors() []*MirrorBackend { return pl.mirrors }

// RangeSkyline answers q through the routed backend.
func (pl *Planner) RangeSkyline(q geom.Rect) []geom.Point {
	return pl.Route(q).RangeSkyline(q)
}

// Insert applies p to every backend so they index the same point set.
func (pl *Planner) Insert(p geom.Point) error {
	for _, b := range pl.backends {
		if err := b.Insert(p); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes p, presence-check-first: the primary is consulted
// first, and the mirrors are only mutated after it confirms presence. A
// miss therefore mutates nothing, and a mirror disagreeing with the
// primary's verdict is reported as corruption. On an error after the
// primary confirmed presence the reported bool is still true — the
// point was removed from the primary — so callers can keep their size
// accounting consistent with it.
func (pl *Planner) Delete(p geom.Point) (bool, error) {
	present, err := pl.backends[0].Delete(p)
	if err != nil || !present {
		return present, err
	}
	for _, b := range pl.backends[1:] {
		ok, err := b.Delete(p)
		if err != nil {
			return true, err
		}
		if !ok {
			return true, fmt.Errorf("engine: backends disagree on presence of %v", p)
		}
	}
	return true, nil
}

// BatchInsert applies the batch to every backend through its batched
// path, so each backend amortizes its per-call overhead (the sharded
// backend takes each shard lock once per batch, not once per point).
func (pl *Planner) BatchInsert(pts []geom.Point) error {
	for _, b := range pl.backends {
		if err := b.BatchInsert(pts); err != nil {
			return err
		}
	}
	return nil
}

// batchDeleteReporter is the batched analogue of presence-check-first:
// a backend that can report WHICH points a batch delete removed, not
// just how many. The sharded engine implements it, and every wrapping
// layer forwards it.
type batchDeleteReporter interface {
	BatchDeleteRemoved(pts []geom.Point) ([]geom.Point, error)
}

// BatchDelete removes the batch through every backend's batched path,
// returning how many points were present and removed. It is
// presence-check-first, like Delete (see BatchDeleteRemoved).
func (pl *Planner) BatchDelete(pts []geom.Point) (int, error) {
	if len(pl.backends) == 1 {
		// No mirrors to confirm the subset to; skip materializing the
		// removed-points slice.
		return pl.backends[0].BatchDelete(pts)
	}
	removed, err := pl.BatchDeleteRemoved(pts)
	return len(removed), err
}

// BatchDeleteRemoved is BatchDelete reporting the removed points
// themselves: the primary resolves the batch and reports the subset it
// actually removed, and only that confirmed subset is fanned out to the
// mirrors — so a miss mutates nothing anywhere, and concurrent
// overlapping batches (the primary serializes per shard and resolves
// every contended point to exactly one caller) fan out disjoint subsets
// instead of tripping false corruption reports. A mirror disagreeing on
// a confirmed-present point is real corruption; the returned subset
// stays meaningful alongside the error. A CacheBackend wrapping the
// planner uses the subset to invalidate exactly the removed points — a
// batch of all misses then evicts nothing. The primary must implement
// BatchDeleteRemoved.
func (pl *Planner) BatchDeleteRemoved(pts []geom.Point) ([]geom.Point, error) {
	rep, ok := pl.backends[0].(batchDeleteReporter)
	if !ok {
		return nil, fmt.Errorf("engine: primary backend cannot report removed points")
	}
	confirmed, err := rep.BatchDeleteRemoved(pts)
	if err != nil {
		return confirmed, err
	}
	for _, b := range pl.backends[1:] {
		got, err := b.BatchDelete(confirmed)
		if err != nil {
			return confirmed, err
		}
		if got != len(confirmed) {
			return confirmed, fmt.Errorf(
				"engine: backends disagree on batch presence (%d vs %d removed)", got, len(confirmed))
		}
	}
	return confirmed, nil
}

// Stats sums the I/O counters of the primary and every mirror. Each
// owns its own disks, so nothing is counted twice.
func (pl *Planner) Stats() emio.Stats {
	var total emio.Stats
	for _, b := range pl.backends {
		total = total.Add(b.Stats())
	}
	return total
}

// ResetStats zeroes the I/O counters of every backend.
func (pl *Planner) ResetStats() {
	for _, b := range pl.backends {
		b.ResetStats()
	}
}
