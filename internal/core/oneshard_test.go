package core

import (
	"math/rand"
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

// pinnedSets returns the I/O pin tests' seed set of n points and nIns
// points to insert, both uniform over [0, span): even coordinates for
// the seed, odd ones for the inserts, so the union stays in general
// position.
func pinnedSets(n, nIns int) (base, fresh []geom.Point, span geom.Coord) {
	span = geom.Coord(n * 32)
	base = geom.GenUniform(n, int64(span/2), 11)
	for i := range base {
		base[i].X, base[i].Y = 2*base[i].X, 2*base[i].Y
	}
	fresh = geom.GenUniform(nIns, int64(span/2), 12)
	for i := range fresh {
		fresh[i].X, fresh[i].Y = 2*fresh[i].X+1, 2*fresh[i].Y+1
	}
	return base, fresh, span
}

// TestDefaultIOPinned pins the simulated I/O of a default index — one
// shard, no options beyond the machine — for build, queries, single
// inserts and single deletes, and checks every answer against
// geom.RangeSkyline. The figures are those of the dedicated single-disk
// stack the one-shard engine replaced: the same structures on one disk,
// updated one point at a time in the same per-point order, so every
// count must match exactly.
func TestDefaultIOPinned(t *testing.T) {
	const n, nIns, nDel, rounds = 4096, 300, 200, 2000
	base, fresh, span := pinnedSets(n, nIns)
	cfg := emio.Config{B: 64, M: 4096}
	for _, tc := range []struct {
		name                     string
		dynamic                  bool
		build, queries, ins, del uint64
	}{
		{"static", false, 3778, 23372, 0, 0},
		{"dynamic", true, 1792, 37683, 43461, 28962},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(Options{Machine: cfg, Dynamic: tc.dynamic}, base)
			if err != nil {
				t.Fatal(err)
			}
			live := append([]geom.Point(nil), base...)
			measure := func(what string, want uint64, op func()) {
				t.Helper()
				db.ResetStats()
				op()
				if got := db.Stats().IOs(); got != want {
					t.Errorf("%s: %d I/Os, want %d", what, got, want)
				}
			}
			if got := db.Stats().IOs(); got != tc.build {
				t.Errorf("build: %d I/Os, want %d", got, tc.build)
			}
			rng := rand.New(rand.NewSource(11))
			measure("queries", tc.queries, func() {
				for i := 0; i < rounds; i++ {
					x1, y1 := geom.Coord(rng.Int63n(int64(span))), geom.Coord(rng.Int63n(int64(span)))
					x2, y2 := x1+geom.Coord(rng.Int63n(int64(span/4))), y1+geom.Coord(rng.Int63n(int64(span/4)))
					for _, q := range []geom.Rect{
						geom.TopOpen(x1, x2, y1),
						geom.RightOpen(x1, y1, y2),
						geom.BottomOpen(x1, x2, y2),
						{X1: x1, X2: x2, Y1: y1, Y2: y2},
					} {
						if got, want := db.RangeSkyline(q), geom.RangeSkyline(live, q); !sameAnswer(got, want) {
							t.Fatalf("%v = %v, want %v", q, got, want)
						}
					}
				}
			})
			if !tc.dynamic {
				return
			}
			measure("single inserts", tc.ins, func() {
				for _, p := range fresh {
					if err := db.Insert(p); err != nil {
						t.Fatal(err)
					}
				}
			})
			live = append(live, fresh...)
			victims := make(map[geom.Point]bool, nDel)
			measure("single deletes", tc.del, func() {
				for _, i := range rng.Perm(len(live))[:nDel] {
					victims[live[i]] = true
					if ok, err := db.Delete(live[i]); !ok || err != nil {
						t.Fatalf("Delete(%v) = %t, %v", live[i], ok, err)
					}
				}
			})
			kept := live[:0]
			for _, p := range live {
				if !victims[p] {
					kept = append(kept, p)
				}
			}
			if got, want := db.Skyline(), geom.Skyline(kept); !sameAnswer(got, want) {
				t.Fatalf("skyline after updates = %v, want %v", got, want)
			}
			if db.Len() != len(kept) {
				t.Fatalf("Len = %d, want %d", db.Len(), len(kept))
			}
		})
	}
}

// TestDefaultBatchIOPinned pins a default index's batched-update I/O.
// The one-shard engine applies a batch point by point, each point to
// both structures in turn (the order every multi-shard configuration
// uses), where the retired single-disk stack applied the whole batch to
// one structure, then the other: 300 batched inserts cost 39333 I/Os
// and 200 batched deletes 25317 there.
func TestDefaultBatchIOPinned(t *testing.T) {
	const n, nIns, nDel = 4096, 300, 200
	base, fresh, _ := pinnedSets(n, nIns)
	db, err := Open(Options{Machine: emio.Config{B: 64, M: 4096}, Dynamic: true}, base)
	if err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	if err := db.BatchInsert(fresh); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().IOs(); got != 43479 {
		t.Errorf("batch insert: %d I/Os, want 43479", got)
	}
	db.ResetStats()
	victims := append(append([]geom.Point(nil), base[:nDel-nIns/2]...), fresh[:nIns/2]...)
	if removed, err := db.BatchDelete(victims); removed != nDel || err != nil {
		t.Fatalf("BatchDelete = %d, %v; want %d", removed, err, nDel)
	}
	if got := db.Stats().IOs(); got != 28183 {
		t.Errorf("batch delete: %d I/Os, want 28183", got)
	}
	if got, want := db.Len(), n+nIns-nDel; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}
