package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"slices"

	"repro/internal/core"
	"repro/internal/geom"
)

// oracleQueries is how many seeded queries the post-window check
// compares against the brute-force oracle.
const oracleQueries = 128

// expected is the live set the acknowledged writes imply: the base plus
// acknowledged inserts minus acknowledged deletes.
type expected struct {
	live    []geom.Point
	liveSet map[geom.Point]bool
	written []geom.Point // every point an acknowledged write touched
	unknown map[geom.Point]bool
}

func expect(streams []*stream) *expected {
	e := &expected{liveSet: map[geom.Point]bool{}, unknown: map[geom.Point]bool{}}
	for _, s := range streams {
		e.live = append(e.live, s.live...)
		e.written = append(e.written, s.written...)
		for _, p := range s.unknown {
			e.unknown[p] = true
		}
	}
	for _, p := range e.live {
		e.liveSet[p] = true
	}
	return e
}

// touchesUnknown reports whether a failed write's point lies in r, so
// the oracle cannot know the right answer.
func (e *expected) touchesUnknown(r geom.Rect) bool {
	for p := range e.unknown {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// verifyLive checks the serving namespace after the timed window: Len
// equals the expected size, and a seeded sample of queries (plus, on
// hot-read, catalog entries) answers exactly what geom.RangeSkyline
// answers over the expected live set.
func verifyLive(svc *service, d *dataset, e *expected) error {
	n, err := svc.len()
	if err != nil {
		return fmt.Errorf("len: %w", err)
	}
	if diff := n - len(e.live); diff < -len(e.unknown) || diff > len(e.unknown) {
		return fmt.Errorf("len = %d, want %d (±%d unknown)", n, len(e.live), len(e.unknown))
	}
	rng := rand.New(rand.NewSource(subSeed(d.seed, 3)))
	qs := make([]query, 0, oracleQueries)
	for i := 0; i < oracleQueries; i++ {
		if d.catalog != nil && i%2 == 0 {
			qs = append(qs, d.catalog[rng.Intn(len(d.catalog))])
			continue
		}
		qs = append(qs, randQuery(rng))
	}
	for _, q := range qs {
		if e.touchesUnknown(q.rect) {
			continue
		}
		var r reply
		status, err := roundTrip(svc.hc, request(svc.url, op{kind: opRead, q: &q}), &r)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("oracle query %v: status %d, %v", q.rect, status, err)
		}
		got, want := r.points(), geom.RangeSkyline(e.live, q.rect)
		if !slices.Equal(got, want) {
			return fmt.Errorf("oracle query %v: got %d points %v, want %d points %v", q.rect, len(got), got, len(want), want)
		}
	}
	return nil
}

// verifyDurable reopens the namespace's directory after a graceful
// Close and checks that no acknowledged write was lost: the size is
// the expected one, every acknowledged write's point is present exactly
// when the expected live set holds it.
func verifyDurable(dir string, e *expected) error {
	db, err := core.Open(core.Options{Dir: dir}, nil)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	if n := db.Len(); n < len(e.live)-len(e.unknown) || n > len(e.live)+len(e.unknown) {
		return fmt.Errorf("reopened len = %d, want %d", n, len(e.live))
	}
	lost := 0
	var first geom.Point
	for _, p := range e.written {
		if e.unknown[p] {
			continue
		}
		got := db.RangeSkyline(geom.Rect{X1: p.X, X2: p.X, Y1: p.Y, Y2: p.Y})
		present := len(got) == 1 && got[0] == p
		if present != e.liveSet[p] {
			if lost == 0 {
				first = p
			}
			lost++
		}
	}
	if lost > 0 {
		return fmt.Errorf("%d acknowledged writes lost across close and reopen (first: %v)", lost, first)
	}
	return nil
}
