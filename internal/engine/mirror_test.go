package engine_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/emio"
	"repro/internal/engine"
	"repro/internal/foursided"
	"repro/internal/geom"
	"repro/internal/shard"
)

var mirrorCfg = emio.Config{B: 32, M: 32 * 32}

// oneShard builds a one-shard engine over x-sorted pts: the single-disk
// configuration of the paper's structures.
func oneShard(t *testing.T, pts []geom.Point, opts shard.Options) *shard.Engine {
	t.Helper()
	opts.Machine, opts.Shards = mirrorCfg, 1
	e, err := shard.New(opts, pts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// buildMirror returns a transpose mirror over pts: a one-shard dynamic
// TopOnly engine indexing the reflected point set.
func buildMirror(t *testing.T, pts []geom.Point) (*engine.MirrorBackend, *shard.Engine) {
	t.Helper()
	ref := geom.ReflectSwapXY
	mpts := ref.Pts(pts)
	geom.SortByX(mpts)
	inner := oneShard(t, mpts, shard.Options{Dynamic: true, TopOnly: true})
	m, err := engine.NewMirror(ref, inner)
	if err != nil {
		t.Fatal(err)
	}
	return m, inner
}

// TestNewMirrorRejectsUnsoundReflections pins the dominance gate: the
// reflections that would serve bottom-open / left-open / anti-dominance
// rectangles are exactly the ones that compute the wrong staircase, and
// NewMirror refuses to build them (Theorem 5 says any correct structure
// for those shapes pays Ω((n/B)^ε) at linear space).
func TestNewMirrorRejectsUnsoundReflections(t *testing.T) {
	inner := oneShard(t, nil, shard.Options{Dynamic: true, TopOnly: true})
	for _, ref := range []geom.Reflection{geom.ReflectNegY, geom.ReflectAntiTranspose} {
		if _, err := engine.NewMirror(ref, inner); err == nil {
			t.Fatalf("NewMirror(%v) should refuse a dominance-breaking reflection", ref)
		}
	}
	if _, err := engine.NewMirror(geom.ReflectSwapXY, inner); err != nil {
		t.Fatalf("NewMirror(swap-xy): %v", err)
	}
}

// TestMirrorAnswersGroundedRightFamily cross-checks the mirror against
// the oracle and a Theorem 6 structure on every grounded-right-edge
// rectangle shape, including after updates flow through both.
func TestMirrorAnswersGroundedRightFamily(t *testing.T) {
	const n = 250
	span := geom.Coord(n * 16)
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			all := geom.GenUniform(n+80, span, seed+2100)
			pts := append([]geom.Point(nil), all[:n]...)
			pool := all[n:]
			geom.SortByX(pts)
			m, _ := buildMirror(t, pts)
			four := foursided.Build(emio.NewDisk(mirrorCfg), 0.5, pts)
			ref := append([]geom.Point(nil), pts...)

			rng := rand.New(rand.NewSource(seed))
			check := func(q geom.Rect, ctx string) {
				t.Helper()
				if !m.Serves(q) {
					t.Fatalf("%s: mirror should serve %v", ctx, q)
				}
				got := m.RangeSkyline(q)
				want := four.Query(q)
				oracle := geom.RangeSkyline(ref, q)
				if len(got) != len(want) || len(got) != len(oracle) {
					t.Fatalf("%s %v: mirror %v, foursided %v, oracle %v", ctx, q, got, want, oracle)
				}
				for i := range got {
					if got[i] != want[i] || got[i] != oracle[i] {
						t.Fatalf("%s %v: point %d mirror %v, foursided %v, oracle %v",
							ctx, q, i, got[i], want[i], oracle[i])
					}
				}
			}
			queries := func(round int) {
				for i := 0; i < 30; i++ {
					x := rng.Int63n(span)
					y1 := rng.Int63n(span)
					y2 := y1 + rng.Int63n(span/2+1)
					ctx := fmt.Sprintf("round=%d i=%d", round, i)
					check(geom.RightOpen(x, y1, y2), ctx+" right-open")
					// Right+bottom grounded quadrant [x,∞) × (-∞,y2].
					check(geom.Rect{X1: x, X2: geom.PosInf, Y1: geom.NegInf, Y2: y2}, ctx+" lower-right")
					// Horizontal band (-∞,∞) × [y1,y2].
					check(geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: y1, Y2: y2}, ctx+" band")
					// Horizontal contour (-∞,∞) × (-∞,y2].
					check(geom.Rect{X1: geom.NegInf, X2: geom.PosInf, Y1: geom.NegInf, Y2: y2}, ctx+" h-contour")
				}
			}
			queries(0)
			// Updates: single-point and batched, fanned to mirror and
			// Theorem 6 structure alike.
			half := len(pool) / 2
			for _, p := range pool[:half] {
				if err := m.Insert(p); err != nil {
					t.Fatal(err)
				}
				four.Insert(p)
				ref = append(ref, p)
			}
			queries(1)
			if err := m.BatchInsert(pool[half:]); err != nil {
				t.Fatal(err)
			}
			for _, p := range pool[half:] {
				four.Insert(p)
			}
			ref = append(ref, pool[half:]...)
			queries(2)
			var victims []geom.Point
			for i := 0; i < len(pool); i += 2 {
				victims = append(victims, pool[i])
			}
			if removed, err := m.BatchDelete(victims); err != nil || removed != len(victims) {
				t.Fatalf("BatchDelete = %d, %v; want %d", removed, err, len(victims))
			}
			for _, p := range victims {
				if !four.Delete(p) {
					t.Fatalf("foursided lost %v", p)
				}
			}
			alive := ref[:0]
			dead := make(map[geom.Point]bool, len(victims))
			for _, p := range victims {
				dead[p] = true
			}
			for _, p := range ref {
				if !dead[p] {
					alive = append(alive, p)
				}
			}
			ref = alive
			queries(3)
		})
	}
}

// TestPlannerMirrorRouting pins the routing table: for every Figure-2
// shape, the planner serves it from the asymptotically best backend —
// top-open family on the primary's top-open structure, grounded-right
// family via the mirror, everything else on the primary's Theorem 6
// structure.
func TestPlannerMirrorRouting(t *testing.T) {
	pts := geom.GenUniform(100, 100*16, 9)
	geom.SortByX(pts)
	primary := oneShard(t, pts, shard.Options{Dynamic: true})
	m, _ := buildMirror(t, pts)
	pl := engine.NewPlanner(primary, m)

	ni, pi := geom.NegInf, geom.PosInf
	cases := []struct {
		name string
		q    geom.Rect
		want engine.Backend
	}{
		{"top-open", geom.TopOpen(1, 9, 3), primary},
		{"dominance", geom.Dominance(4, 4), primary},
		{"contour", geom.Contour(6), primary},
		{"whole-plane", geom.Rect{X1: ni, X2: pi, Y1: ni, Y2: pi}, primary},
		{"right-open", geom.RightOpen(1, 2, 8), m},
		{"lower-right quadrant", geom.Rect{X1: 1, X2: pi, Y1: ni, Y2: 8}, m},
		{"horizontal band", geom.Rect{X1: ni, X2: pi, Y1: 2, Y2: 8}, m},
		{"horizontal contour", geom.Rect{X1: ni, X2: pi, Y1: ni, Y2: 8}, m},
		{"4-sided", geom.Rect{X1: 1, X2: 9, Y1: 2, Y2: 8}, primary},
		{"bottom-open", geom.BottomOpen(1, 9, 5), primary},
		{"left-open", geom.LeftOpen(7, 2, 8), primary},
		{"anti-dominance", geom.AntiDominance(4, 4), primary},
	}
	for _, c := range cases {
		if got := pl.Route(c.q); got != c.want {
			t.Errorf("%s %v routed to %T, want %T", c.name, c.q, got, c.want)
		}
	}
	if len(pl.Mirrors()) != 1 || pl.Mirrors()[0] != m {
		t.Fatalf("Mirrors() = %v, want [m]", pl.Mirrors())
	}
}

// TestPlannerStatsAggregation pins the Stats/ResetStats contract: the
// total is the exact sum of the primary's and the mirror's disks, and
// ResetStats zeroes them all.
func TestPlannerStatsAggregation(t *testing.T) {
	pts := geom.GenUniform(400, 400*16, 11)
	geom.SortByX(pts)
	primary := oneShard(t, pts, shard.Options{})
	m, mirror := buildMirror(t, pts)
	pl := engine.NewPlanner(primary, m)

	pl.ResetStats()
	if got := pl.Stats(); got.IOs() != 0 {
		t.Fatalf("after ResetStats, Stats().IOs() = %d, want 0", got.IOs())
	}
	// Touch all three paths: top-open (primary), right-open (mirror),
	// 4-sided (primary).
	pl.RangeSkyline(geom.TopOpen(0, 400*16, 0))
	pl.RangeSkyline(geom.RightOpen(0, 0, 400*16))
	pl.RangeSkyline(geom.Rect{X1: 10, X2: 4000, Y1: 10, Y2: 4000})

	want := primary.Stats().Add(mirror.Stats())
	if got := pl.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want primary+mirror = %+v", got, want)
	}
	if primary.Stats().IOs() == 0 || mirror.Stats().IOs() == 0 {
		t.Fatalf("expected I/Os on both engines (primary %d, mirror %d)",
			primary.Stats().IOs(), mirror.Stats().IOs())
	}
	pl.ResetStats()
	if got := pl.Stats(); got.IOs() != 0 {
		t.Fatalf("after second ResetStats, Stats().IOs() = %d, want 0", got.IOs())
	}
}

// TestMirrorBatchDeleteAgreement drives the multi-backend batched
// delete path: duplicates and absentees in the batch must yield
// agreeing removal counts across backends (no corruption error), with
// the engine staying byte-identical afterwards.
func TestMirrorBatchDeleteAgreement(t *testing.T) {
	pts := geom.GenUniform(300, 300*16, 13)
	geom.SortByX(pts)
	m, _ := buildMirror(t, pts)
	pl := engine.NewPlanner(oneShard(t, pts, shard.Options{Dynamic: true}), m)

	rng := rand.New(rand.NewSource(17))
	perm := rng.Perm(len(pts))[:100]
	sort.Ints(perm)
	var batch []geom.Point
	for _, i := range perm {
		batch = append(batch, pts[i])
	}
	batch = append(batch, batch[0])                           // duplicate: second is a miss
	batch = append(batch, geom.Point{X: 1 << 40, Y: 1 << 40}) // absentee
	removed, err := pl.BatchDelete(batch)
	if err != nil || removed != len(perm) {
		t.Fatalf("BatchDelete = %d, %v; want %d, nil", removed, err, len(perm))
	}
	ref := pts[:0:0]
	del := make(map[geom.Point]bool)
	for _, p := range batch {
		del[p] = true
	}
	for _, p := range pts {
		if !del[p] {
			ref = append(ref, p)
		}
	}
	for i := 0; i < 40; i++ {
		x := rng.Int63n(300 * 16)
		y1 := rng.Int63n(300 * 16)
		q := geom.RightOpen(x, y1, y1+rng.Int63n(2000))
		got := pl.RangeSkyline(q)
		want := geom.RangeSkyline(ref, q)
		if len(got) != len(want) {
			t.Fatalf("q=%v: got %v, want %v", q, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("q=%v: point %d = %v, want %v", q, j, got[j], want[j])
			}
		}
	}
}
