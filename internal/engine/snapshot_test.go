package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/shard"
)

// buildSnapPlanner assembles the routing table core.Open builds in
// dynamic mode: a one-shard primary carrying both families and a
// transpose mirror on its own disk.
func buildSnapPlanner(t *testing.T, pts []geom.Point) *engine.Planner {
	t.Helper()
	m, _ := buildMirror(t, pts)
	return engine.NewPlanner(oneShard(t, pts, shard.Options{Dynamic: true}), m)
}

// nopLog is an UpdateLog that accepts every batch.
type nopLog struct{}

func (nopLog) LogBatch(dels, inss []geom.Point) error { return nil }

// snapShapes is one query per Figure-2 shape over the given span, so a
// pinned view exercises every routing arm.
func snapShapes(span geom.Coord) []geom.Rect {
	mid, q3 := span/2, 3*span/4
	return []geom.Rect{
		geom.TopOpen(span/4, q3, span/8),
		geom.Rect{X1: span / 4, X2: q3, Y1: span / 8, Y2: q3},
		geom.LeftOpen(mid, span/8, q3),
		geom.RightOpen(mid, span/8, q3),
		geom.BottomOpen(span/4, q3, mid),
		geom.Dominance(mid, mid),
		geom.AntiDominance(mid, mid),
	}
}

// TestSnapshotStackFrozen pins a view through the whole wrapped stack —
// AsyncQueue over LogBackend over CacheBackend over the Planner — and
// asserts the view's answers for every shape stay byte-identical to the
// oracle frozen at the pin while later writes flow, drain and change the
// live answers. Release must return every retention and deferred block.
func TestSnapshotStackFrozen(t *testing.T) {
	const n = 220
	span := geom.Coord(n * 16)
	all := geom.GenUniform(n+120, span, 4400)
	pts := append([]geom.Point(nil), all[:n]...)
	pool := all[n:]
	geom.SortByX(pts)

	pl := buildSnapPlanner(t, pts)
	cache, err := engine.NewCache(pl, 64)
	if err != nil {
		t.Fatal(err)
	}
	lb := engine.NewLogBackend(cache, nopLog{}, pts)
	q, err := engine.NewAsyncQueue(lb, engine.QueueOptions{FlushPoints: 1 << 20, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}

	ref := append([]geom.Point(nil), pts...)
	// Buffered writes the pin's flush must make visible.
	for _, p := range pool[:20] {
		if err := q.Insert(p); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, p)
	}

	view, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	frozen := append([]geom.Point(nil), ref...)
	if got := pl.Retained(); got == 0 {
		t.Fatal("Retained() = 0 with a pinned view open")
	}

	check := func(stage string) {
		t.Helper()
		for _, r := range snapShapes(span) {
			got, want := view.RangeSkyline(r), geom.RangeSkyline(frozen, r)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: view %v = %v, frozen oracle %v", stage, r, got, want)
			}
		}
	}
	check("at pin")

	// Mutate through the queue: inserts, deletes of pinned points, and a
	// flush so the drains retire spans the view still references.
	for _, p := range pool[20:] {
		if err := q.Insert(p); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, p)
	}
	for _, victim := range frozen[:40] {
		if _, err := q.Delete(victim); err != nil {
			t.Fatal(err)
		}
		ref = diffPoints(ref, victim)
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	check("after writes drained")

	// The live index moved on; the view did not.
	liveQ := geom.TopOpen(0, span, 0)
	if fmt.Sprint(q.RangeSkyline(liveQ)) != fmt.Sprint(geom.RangeSkyline(ref, liveQ)) {
		t.Fatal("live answer diverged from the live oracle")
	}
	if fmt.Sprint(view.RangeSkyline(liveQ)) != fmt.Sprint(geom.RangeSkyline(frozen, liveQ)) {
		t.Fatal("pinned answer moved with the live index")
	}
	if pl.DeferredBlocks() == 0 {
		t.Fatal("deletes of pinned points retired no blocks — the retention is not holding anything")
	}

	view.Release()
	view.Release() // idempotent
	if got := pl.Retained(); got != 0 {
		t.Fatalf("Retained() = %d after release", got)
	}
	if got := pl.DeferredBlocks(); got != 0 {
		t.Fatalf("DeferredBlocks() = %d after release — retired spans leaked", got)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
}

// diffPoints removes one point from a slice (order not preserved).
func diffPoints(pts []geom.Point, victim geom.Point) []geom.Point {
	for i, p := range pts {
		if p == victim {
			pts[i] = pts[len(pts)-1]
			return pts[:len(pts)-1]
		}
	}
	return pts
}

// TestSnapshotStaticTopOpen pins a static top-open engine (the
// Theorem 1 index, as in a static mirror): the handle is the immutable
// index itself, and the retention opens and closes around it.
func TestSnapshotStaticTopOpen(t *testing.T) {
	const n = 180
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 4500)
	geom.SortByX(pts)
	top := oneShard(t, pts, shard.Options{TopOnly: true})

	view, err := top.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if top.Retained() != 1 {
		t.Fatalf("Retained() = %d, want 1", top.Retained())
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		x1 := geom.Coord(rng.Int63n(int64(span)))
		q := geom.TopOpen(x1, x1+span/4, geom.Coord(rng.Int63n(int64(span))))
		got, want := view.RangeSkyline(q), geom.RangeSkyline(pts, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v: view %v, oracle %v", q, got, want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("4-sided rect on a top-only view should panic")
			}
		}()
		view.RangeSkyline(geom.Rect{X1: 0, X2: span, Y1: 0, Y2: span / 2})
	}()
	view.Release()
	if top.Retained() != 0 {
		t.Fatalf("Retained() = %d after release", top.Retained())
	}
}

// TestPlanViewRouting freezes a full routing table and asserts the
// PlanView routes each shape the same way the live planner does:
// top-open family to the pinned primary, grounded-right-edge rectangles
// to the pinned mirror, the rest to the pinned primary.
func TestPlanViewRouting(t *testing.T) {
	const n = 150
	span := geom.Coord(n * 16)
	pts := geom.GenUniform(n, span, 4600)
	geom.SortByX(pts)
	pl := buildSnapPlanner(t, pts)

	view, err := pl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer view.Release()
	pv := view.(*engine.PlanView)

	for _, tc := range []struct {
		q    geom.Rect
		want string
	}{
		{geom.TopOpen(0, span, span/2), "primary"},
		{geom.Dominance(span/2, span/2), "primary"},
		{geom.RightOpen(span/2, span/8, span/2), "mirror"},
		{geom.Rect{X1: span / 4, X2: span / 2, Y1: span / 8, Y2: span / 2}, "mirror"},
		{geom.LeftOpen(span/2, span/8, span/2), "primary"},
		{geom.BottomOpen(0, span, span/2), "primary"},
		{geom.AntiDominance(span/2, span/2), "primary"},
	} {
		got := "primary"
		if _, isMirror := pv.Route(tc.q).(*engine.MirrorView); isMirror {
			got = "mirror"
		}
		want := tc.want
		if tc.want == "mirror" {
			// A bounded 4-sided rectangle only routes to the mirror when
			// its reflection is top-open; mirror routing must agree with
			// the live planner either way.
			if _, isMirror := pl.Route(tc.q).(*engine.MirrorBackend); !isMirror {
				want = "primary"
			}
		}
		if got != want {
			t.Fatalf("Route(%v) = %s, want %s", tc.q, got, want)
		}
		lgot, lwant := fmt.Sprint(pv.RangeSkyline(tc.q)), fmt.Sprint(geom.RangeSkyline(pts, tc.q))
		if lgot != lwant {
			t.Fatalf("PlanView %v = %s, oracle %s", tc.q, lgot, lwant)
		}
	}
}
