// Package geom provides the planar primitives of the paper: points,
// axis-parallel query rectangles (including the grounded 3-, 2- and
// 1-sided variants of Figure 2), dominance, and in-memory skyline
// computation used as the correctness oracle by every structure's tests.
package geom

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Coord is a point coordinate. The paper's universe is R²; we use int64
// coordinates (a machine word, as the paper assumes for the [U]² case).
// Real-valued inputs can be rank-reduced without changing any query
// answer.
type Coord = int64

// Sentinel coordinates representing the open sides of grounded queries.
const (
	NegInf Coord = math.MinInt64
	PosInf Coord = math.MaxInt64
)

// Point is a point in the plane.
type Point struct {
	X, Y Coord
}

func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Dominates reports whether p dominates q: p.X >= q.X and p.Y >= q.Y and
// p != q. With inputs in general position (no shared coordinates) this
// matches the paper's definition.
func (p Point) Dominates(q Point) bool {
	return p != q && p.X >= q.X && p.Y >= q.Y
}

// Less orders points by x, breaking ties by y. It is the canonical
// ordering used throughout the repository.
func Less(p, q Point) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	return p.Y < q.Y
}

// Rect is an axis-parallel query rectangle [X1,X2] × [Y1,Y2], closed on
// all sides. Grounded sides use NegInf/PosInf.
type Rect struct {
	X1, X2, Y1, Y2 Coord
}

// TopOpen returns the 3-sided rectangle [x1,x2] × [y,∞) of a top-open
// query (Figure 2a).
func TopOpen(x1, x2, y Coord) Rect { return Rect{X1: x1, X2: x2, Y1: y, Y2: PosInf} }

// LeftOpen returns the 3-sided rectangle (-∞,x] × [y1,y2] of a left-open
// query (Figure 2d).
func LeftOpen(x, y1, y2 Coord) Rect { return Rect{X1: NegInf, X2: x, Y1: y1, Y2: y2} }

// RightOpen returns the 3-sided rectangle [x,∞) × [y1,y2] of a right-open
// query (Figure 2b).
func RightOpen(x, y1, y2 Coord) Rect { return Rect{X1: x, X2: PosInf, Y1: y1, Y2: y2} }

// BottomOpen returns the 3-sided rectangle [x1,x2] × (-∞,y] of a
// bottom-open query (Figure 2c).
func BottomOpen(x1, x2, y Coord) Rect { return Rect{X1: x1, X2: x2, Y1: NegInf, Y2: y} }

// Dominance returns the 2-sided rectangle [x,∞) × [y,∞) with top and
// right edges grounded (Figure 2e): the upper-right quadrant of (x,y).
// It is the special case of a top-open query with α2 = ∞, which is why
// the top-open structures answer it directly.
func Dominance(x, y Coord) Rect { return Rect{X1: x, X2: PosInf, Y1: y, Y2: PosInf} }

// AntiDominance returns the 2-sided rectangle (-∞,x] × (-∞,y] with
// bottom and left edges grounded (Figure 2f): the lower-left quadrant of
// (x,y). Theorem 5 proves this variant — and hence left-open and 4-sided
// queries — cannot be answered in sub-polynomial I/Os at linear space.
func AntiDominance(x, y Coord) Rect { return Rect{X1: NegInf, X2: x, Y1: NegInf, Y2: y} }

// Contour returns the 1-sided rectangle (-∞,x] × (-∞,∞) (Figure 2g).
func Contour(x Coord) Rect { return Rect{X1: NegInf, X2: x, Y1: NegInf, Y2: PosInf} }

// Contains reports whether the rectangle contains the point.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X1 && p.X <= r.X2 && p.Y >= r.Y1 && p.Y <= r.Y2
}

// IsTopOpen reports whether the rectangle's top edge is grounded.
func (r Rect) IsTopOpen() bool { return r.Y2 == PosInf }

func (r Rect) String() string {
	fmtSide := func(c Coord) string {
		switch c {
		case NegInf:
			return "-inf"
		case PosInf:
			return "+inf"
		default:
			return fmt.Sprintf("%d", c)
		}
	}
	return fmt.Sprintf("[%s,%s]x[%s,%s]",
		fmtSide(r.X1), fmtSide(r.X2), fmtSide(r.Y1), fmtSide(r.Y2))
}

// Compare is the three-way form of Less, for slices.SortFunc.
func Compare(p, q Point) int {
	if c := cmp.Compare(p.X, q.X); c != 0 {
		return c
	}
	return cmp.Compare(p.Y, q.Y)
}

// SortByX sorts points in place by x-coordinate, breaking ties by y.
func SortByX(pts []Point) {
	slices.SortFunc(pts, Compare)
}

// Skyline returns the maximal points of pts: those dominated by no other
// point. The result is sorted by increasing x (hence decreasing y). The
// input is not modified. O(n log n) host time; this is the in-memory
// oracle, not an EM algorithm.
func Skyline(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	SortByX(sorted)
	// Scan right to left keeping the running maximum y.
	var sky []Point
	best := Coord(math.MinInt64)
	for i := len(sorted) - 1; i >= 0; i-- {
		p := sorted[i]
		if i+1 < len(sorted) && p.X == sorted[i+1].X {
			// Same x: only the one with larger y can be maximal,
			// and it was already considered.
			continue
		}
		if p.Y > best {
			sky = append(sky, p)
			best = p.Y
		}
	}
	// Reverse to increasing x.
	for i, j := 0, len(sky)-1; i < j; i, j = i+1, j-1 {
		sky[i], sky[j] = sky[j], sky[i]
	}
	return sky
}

// RangeSkyline returns the skyline of pts ∩ r (the answer to a range
// skyline query, Figure 1b), sorted by increasing x. Brute force; the
// correctness oracle for all indexes.
func RangeSkyline(pts []Point, r Rect) []Point {
	var in []Point
	for _, p := range pts {
		if r.Contains(p) {
			in = append(in, p)
		}
	}
	return Skyline(in)
}

// IsGeneralPosition reports whether no two points share an x- or
// y-coordinate.
func IsGeneralPosition(pts []Point) bool {
	xs := make(map[Coord]bool, len(pts))
	ys := make(map[Coord]bool, len(pts))
	for _, p := range pts {
		if xs[p.X] || ys[p.Y] {
			return false
		}
		xs[p.X] = true
		ys[p.Y] = true
	}
	return true
}

// LeftDom returns leftdom(p): the leftmost point among the points of pts
// dominating p, and ok=false if no point dominates p. Brute force oracle
// for the Σ(P) sweep of §2.2.
func LeftDom(pts []Point, p Point) (Point, bool) {
	var best Point
	found := false
	for _, q := range pts {
		if q.Dominates(p) {
			if !found || q.X < best.X {
				best = q
				found = true
			}
		}
	}
	return best, found
}

// Mirror maps P to P̃ = {(x, -y)}: the transformation of Figure 7 that
// turns dominance into attrition for the dynamic structure of §4.
func Mirror(pts []Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = Point{X: p.X, Y: -p.Y}
	}
	return out
}

// RankSpace maps pts to the rank-space grid [n]²: each coordinate is
// replaced by its rank among the distinct coordinates of its axis. The
// mapping preserves all dominance relations, hence all skyline and range
// skyline answers under the corresponding query-coordinate mapping. It
// returns the transformed points (in the input's order) plus the sorted
// coordinate tables needed to translate queries.
func RankSpace(pts []Point) (out []Point, xs, ys []Coord) {
	xs = make([]Coord, 0, len(pts))
	ys = make([]Coord, 0, len(pts))
	for _, p := range pts {
		xs = append(xs, p.X)
		ys = append(ys, p.Y)
	}
	slices.Sort(xs)
	slices.Sort(ys)
	xs = dedup(xs)
	ys = dedup(ys)
	out = make([]Point, len(pts))
	for i, p := range pts {
		out[i] = Point{
			X: Coord(sort.Search(len(xs), func(j int) bool { return xs[j] >= p.X })),
			Y: Coord(sort.Search(len(ys), func(j int) bool { return ys[j] >= p.Y })),
		}
	}
	return out, xs, ys
}

// RankLo maps a query lower bound into the rank space of a table built by
// RankSpace: the smallest rank whose coordinate is >= c. Using RankLo for
// lower bounds and RankHi for upper bounds makes the transformed query
// return exactly the same point set.
func RankLo(table []Coord, c Coord) Coord {
	// Smallest rank r with table[r] >= c.
	return Coord(sort.Search(len(table), func(j int) bool { return table[j] >= c }))
}

// RankHi returns the largest rank whose coordinate is <= c, i.e. the
// predecessor rank; -1 if all table entries exceed c.
func RankHi(table []Coord, c Coord) Coord {
	return Coord(sort.Search(len(table), func(j int) bool { return table[j] > c })) - 1
}

func dedup(s []Coord) []Coord {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
