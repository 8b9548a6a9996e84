package engine

import (
	"strings"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

func TestClassify(t *testing.T) {
	ni, pi := geom.NegInf, geom.PosInf
	cases := []struct {
		r    geom.Rect
		want Shape
	}{
		{geom.TopOpen(1, 9, 3), TopOpenShape},
		{geom.RightOpen(1, 2, 8), RightOpenShape},
		{geom.BottomOpen(1, 9, 5), BottomOpenShape},
		{geom.LeftOpen(7, 2, 8), LeftOpenShape},
		{geom.Dominance(4, 4), DominanceShape},
		{geom.AntiDominance(4, 4), AntiDominanceShape},
		{geom.Contour(6), ContourShape},
		{geom.Rect{X1: 1, X2: 9, Y1: 2, Y2: 8}, FourSided},
		{geom.Rect{X1: ni, X2: pi, Y1: ni, Y2: pi}, WholePlane},
		// Unnamed grounded combinations fall back by top edge.
		{geom.Rect{X1: ni, X2: pi, Y1: 2, Y2: pi}, TopOpenShape},
		{geom.Rect{X1: ni, X2: pi, Y1: 2, Y2: 8}, FourSided},
		{geom.Rect{X1: ni, X2: 9, Y1: 2, Y2: pi}, TopOpenShape},
	}
	for _, c := range cases {
		if got := Classify(c.r); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestTopOpenFamilyMatchesIsTopOpen(t *testing.T) {
	ni, pi := geom.NegInf, geom.PosInf
	rects := []geom.Rect{
		geom.TopOpen(1, 9, 3), geom.RightOpen(1, 2, 8), geom.BottomOpen(1, 9, 5),
		geom.LeftOpen(7, 2, 8), geom.Dominance(4, 4), geom.AntiDominance(4, 4),
		geom.Contour(6), {X1: 1, X2: 9, Y1: 2, Y2: 8}, {X1: ni, X2: pi, Y1: ni, Y2: pi},
	}
	for _, r := range rects {
		if got := Classify(r).TopOpenFamily(); got != r.IsTopOpen() {
			t.Errorf("%v: TopOpenFamily() = %t, IsTopOpen() = %t", r, got, r.IsTopOpen())
		}
	}
}

// fakeBackend records calls; presence is driven by the pts set.
type fakeBackend struct {
	name    string
	pts     map[geom.Point]bool
	inserts []geom.Point
	deletes []geom.Point
	batches int
}

func newFake(name string, pts ...geom.Point) *fakeBackend {
	f := &fakeBackend{name: name, pts: map[geom.Point]bool{}}
	for _, p := range pts {
		f.pts[p] = true
	}
	return f
}

func (f *fakeBackend) RangeSkyline(geom.Rect) []geom.Point { return nil }
func (f *fakeBackend) Insert(p geom.Point) error {
	f.inserts = append(f.inserts, p)
	f.pts[p] = true
	return nil
}
func (f *fakeBackend) Delete(p geom.Point) (bool, error) {
	if !f.pts[p] {
		return false, nil
	}
	delete(f.pts, p)
	f.deletes = append(f.deletes, p)
	return true, nil
}
func (f *fakeBackend) BatchInsert(pts []geom.Point) error {
	f.batches++
	for _, p := range pts {
		f.pts[p] = true
	}
	return nil
}
func (f *fakeBackend) BatchDelete(pts []geom.Point) (int, error) {
	removed, err := f.BatchDeleteRemoved(pts)
	return len(removed), err
}
func (f *fakeBackend) BatchDeleteRemoved(pts []geom.Point) ([]geom.Point, error) {
	f.batches++
	var removed []geom.Point
	for _, p := range pts {
		if f.pts[p] {
			delete(f.pts, p)
			removed = append(removed, p)
		}
	}
	return removed, nil
}
func (f *fakeBackend) Stats() emio.Stats { return emio.Stats{} }
func (f *fakeBackend) ResetStats()       {}

// fakeMirror wraps a fake in a transpose mirror, the only kind of
// secondary a planner holds.
func fakeMirror(t *testing.T, f *fakeBackend) *MirrorBackend {
	t.Helper()
	m, err := NewMirror(geom.ReflectSwapXY, f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRoute(t *testing.T) {
	primary := newFake("primary")
	m := fakeMirror(t, newFake("mirror"))
	pl := NewPlanner(primary, m)
	for _, c := range []struct {
		q    geom.Rect
		want Backend
	}{
		{geom.TopOpen(1, 9, 3), primary},
		{geom.Dominance(4, 4), primary},
		{geom.RightOpen(1, 2, 8), m},
		{geom.LeftOpen(7, 2, 8), primary},
		{geom.Rect{X1: 1, X2: 9, Y1: 2, Y2: 8}, primary},
	} {
		if b := pl.Route(c.q); b != c.want {
			t.Fatalf("%v routed to %T, want %T", c.q, b, c.want)
		}
	}

	// Without mirrors, everything routes to the primary.
	solo := NewPlanner(primary)
	if b := solo.Route(geom.RightOpen(1, 2, 8)); b != Backend(primary) {
		t.Fatalf("solo right-open routed to %v", b)
	}
	if got := len(solo.Backends()); got != 1 {
		t.Fatalf("solo backends = %d, want 1", got)
	}
}

func TestDeletePresenceCheckFirst(t *testing.T) {
	p := geom.Point{X: 5, Y: 5}
	primary := newFake("primary") // does NOT hold p
	secondary := newFake("secondary", geom.ReflectSwapXY.Point(p))
	pl := NewPlanner(primary, fakeMirror(t, secondary))

	ok, err := pl.Delete(p)
	if ok || err != nil {
		t.Fatalf("Delete = %t, %v; want miss without error", ok, err)
	}
	// The miss must not have mutated the mirror.
	if !secondary.pts[geom.ReflectSwapXY.Point(p)] {
		t.Fatalf("mirror mutated on a primary miss")
	}
	if len(secondary.deletes) != 0 {
		t.Fatalf("mirror saw %d deletes, want 0", len(secondary.deletes))
	}
}

func TestDeleteDisagreementReported(t *testing.T) {
	p := geom.Point{X: 5, Y: 5}
	primary := newFake("primary", p)
	secondary := newFake("secondary") // corrupted: lost p
	pl := NewPlanner(primary, fakeMirror(t, secondary))
	ok, err := pl.Delete(p)
	if err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("Delete err = %v, want disagreement", err)
	}
	// The primary did remove the point; the bool must say so even
	// alongside the error, so callers keep size accounting consistent.
	if !ok {
		t.Fatal("Delete reported false although the primary removed the point")
	}
}

func TestBatchFanOut(t *testing.T) {
	a, b := newFake("a"), newFake("b")
	pl := NewPlanner(a, fakeMirror(t, b))
	pts := []geom.Point{{X: 1, Y: 4}, {X: 2, Y: 3}, {X: 3, Y: 9}}
	if err := pl.BatchInsert(pts); err != nil {
		t.Fatal(err)
	}
	if a.batches != 1 || b.batches != 1 {
		t.Fatalf("batches a=%d b=%d, want 1 each", a.batches, b.batches)
	}
	removed, err := pl.BatchDelete(append(pts, geom.Point{X: 9, Y: 9}))
	if err != nil || removed != len(pts) {
		t.Fatalf("BatchDelete = %d, %v; want %d", removed, err, len(pts))
	}
	if len(a.pts) != 0 || len(b.pts) != 0 {
		t.Fatalf("points left after batch delete: a=%d b=%d", len(a.pts), len(b.pts))
	}
}

func TestBatchDeleteDisagreementReported(t *testing.T) {
	p := geom.Point{X: 5, Y: 5}
	a := newFake("a", p)
	b := newFake("b")
	pl := NewPlanner(a, fakeMirror(t, b))
	removed, err := pl.BatchDelete([]geom.Point{p})
	if err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("BatchDelete err = %v, want disagreement", err)
	}
	// The primary's removal count survives the error.
	if removed != 1 {
		t.Fatalf("BatchDelete removed = %d, want 1 alongside the error", removed)
	}
}

// TestSnapshotNotSnapshottable pins the error path of every wrapping
// layer: a backend without Snapshot support propagates a typed error up
// through planner, cache, log and queue, and a mid-pin failure releases
// the views already taken.
func TestSnapshotNotSnapshottable(t *testing.T) {
	fake := newFake("plain", geom.Point{X: 1, Y: 1})

	if _, err := NewPlanner(fake).Snapshot(); err == nil {
		t.Fatal("Planner.Snapshot over a non-snapshottable backend should fail")
	}

	cache, err := NewCache(fake, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Snapshot(); err == nil {
		t.Fatal("CacheBackend.Snapshot should propagate the inner failure")
	}
	if _, err := NewLogBackend(fake, &memLog{}, nil).Snapshot(); err == nil {
		t.Fatal("LogBackend.Snapshot should propagate the inner failure")
	}
	q, err := NewAsyncQueue(fake, QueueOptions{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Snapshot(); err == nil {
		t.Fatal("AsyncQueue.Snapshot should propagate the inner failure")
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Mid-pin failure: the primary pinned before the failing mirror
	// must be released again.
	primary := &pinFake{fakeBackend: newFake("primary")}
	mixed := NewPlanner(primary, fakeMirror(t, fake))
	if _, err := mixed.Snapshot(); err == nil {
		t.Fatal("mixed planner Snapshot should fail on the fake mirror")
	}
	if primary.pinned != 0 {
		t.Fatalf("%d views still pinned after a failed pin — partial views leaked", primary.pinned)
	}
}

// pinFake is a fake that can pin views, counting the unreleased ones.
type pinFake struct {
	*fakeBackend
	pinned int
}

func (p *pinFake) Snapshot() (View, error) {
	p.pinned++
	return &pinView{p: p}, nil
}

type pinView struct {
	p        *pinFake
	released bool
}

func (v *pinView) RangeSkyline(geom.Rect) []geom.Point { return nil }
func (v *pinView) Release() {
	if !v.released {
		v.released = true
		v.p.pinned--
	}
}
