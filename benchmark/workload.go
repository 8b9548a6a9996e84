package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/geom"
	"repro/internal/serve"
)

// Sizes shared by every workload; README.md explains each choice.
const (
	baseN     = 131072  // points the namespace is seeded with
	poolN     = 65536   // insert pool, disjoint from the base
	coordSpan = 1 << 30 // coordinate universe [0, 2^30)²
	catalogN  = 2048    // distinct rectangles hot-read draws from
	zipfS     = 1.1     // hot-read's rank skew
	clients   = 2       // closed-loop clients, one keep-alive connection each
	machineB  = 64      // simulated block size, in words
	machineM  = 4096    // simulated memory, in words (64 frames)
	cacheSize = 4096    // query-cache entries
	nsName    = "bench" // the one namespace every request targets
)

// workload is one traffic mix. Every workload is a closed loop:
// skylined callers wait for each reply before sending the next request.
type workload struct {
	name string
	// writeFrac is the share of ops that are writes (3:1
	// insert:delete); the rest are reads.
	writeFrac float64
	// catalog draws reads Zipf(zipfS) by rank from catalogN fixed
	// rectangles; otherwise every read is a fresh uniform rectangle.
	catalog bool
	// async buffers writes in the engine's queue, drained only by size,
	// by reads and on Close.
	async bool
}

var workloads = []workload{
	{name: "hot-read", writeFrac: 0.02, catalog: true},
	{name: "write-mix", writeFrac: 0.5, async: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// nsConfig is the namespace every workload serves from: two shards on
// two workers, the transposed mirror, the query cache and a durable
// directory without per-batch fsync.
func (w workload) nsConfig(dir string) serve.NamespaceConfig {
	c := serve.NamespaceConfig{
		B: machineB, M: machineM,
		Shards: 2, Workers: 2,
		Mirrors:      true,
		CacheEntries: cacheSize,
		Dir:          dir,
	}
	if w.async {
		c.AsyncWrites = true
		c.FlushPoints = 128
		c.FlushIntervalMS = -1
	}
	return c
}

// shapes are the seven Figure-2 query shapes plus the 4-sided
// rectangle, under their wire names.
var shapes = []string{
	"top-open", "right-open", "bottom-open", "left-open",
	"dominance", "anti-dominance", "contour", "4-sided",
}

// query is one read: its rectangle and its wire request body.
type query struct {
	rect geom.Rect
	body []byte
}

// randQuery draws a shape uniformly and its parameters uniformly from
// the coordinate universe.
func randQuery(rng *rand.Rand) query {
	return shapeQuery(rng, shapes[rng.Intn(len(shapes))])
}

// shapeQuery draws a query of the given shape.
func shapeQuery(rng *rand.Rand, shape string) query {
	c := func() geom.Coord { return rng.Int63n(coordSpan) }
	pair := func() (geom.Coord, geom.Coord) {
		a, b := c(), c()
		if a > b {
			a, b = b, a
		}
		return a, b
	}
	var r geom.Rect
	var names []string
	var vals []geom.Coord
	switch shape {
	case "top-open":
		x1, x2 := pair()
		beta := c()
		r, names, vals = geom.TopOpen(x1, x2, beta), []string{"x1", "x2", "beta"}, []geom.Coord{x1, x2, beta}
	case "right-open":
		x := c()
		y1, y2 := pair()
		r, names, vals = geom.RightOpen(x, y1, y2), []string{"x", "y1", "y2"}, []geom.Coord{x, y1, y2}
	case "bottom-open":
		x1, x2 := pair()
		y := c()
		r, names, vals = geom.BottomOpen(x1, x2, y), []string{"x1", "x2", "y"}, []geom.Coord{x1, x2, y}
	case "left-open":
		x := c()
		y1, y2 := pair()
		r, names, vals = geom.LeftOpen(x, y1, y2), []string{"x", "y1", "y2"}, []geom.Coord{x, y1, y2}
	case "dominance":
		x, y := c(), c()
		r, names, vals = geom.Dominance(x, y), []string{"x", "y"}, []geom.Coord{x, y}
	case "anti-dominance":
		x, y := c(), c()
		r, names, vals = geom.AntiDominance(x, y), []string{"x", "y"}, []geom.Coord{x, y}
	case "contour":
		x := c()
		r, names, vals = geom.Contour(x), []string{"x"}, []geom.Coord{x}
	case "4-sided":
		x1, x2 := pair()
		y1, y2 := pair()
		r = geom.Rect{X1: x1, X2: x2, Y1: y1, Y2: y2}
		names, vals = []string{"x1", "x2", "y1", "y2"}, []geom.Coord{x1, x2, y1, y2}
	}
	body := append([]byte(`{"shape":"`), shape...)
	body = append(body, '"')
	for i, n := range names {
		body = append(body, `,"`...)
		body = append(body, n...)
		body = append(body, `":`...)
		body = strconv.AppendInt(body, vals[i], 10)
	}
	return query{rect: r, body: append(body, '}')}
}

// pointBody is the wire body of a single-point insert or delete.
func pointBody(p geom.Point) []byte {
	b := append([]byte(`{"point":{"x":`), strconv.AppendInt(nil, p.X, 10)...)
	b = append(b, `,"y":`...)
	b = strconv.AppendInt(b, p.Y, 10)
	return append(b, "}}"...)
}

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

// op is one request of a stream.
type op struct {
	kind opKind
	q    *query     // reads
	pt   geom.Point // writes
}

// dataset is everything a run's inputs derive from its seed: the base
// points, the insert pool and (hot-read) the query catalog.
type dataset struct {
	w       workload
	seed    int64
	base    []geom.Point
	pool    []geom.Point
	catalog []query
}

// newDataset draws base and pool from ONE general-position set, so no
// insert can share a coordinate with a live point, and shuffles it:
// GenUniform returns points sorted by x, and an unshuffled pool would
// insert in ascending x.
func newDataset(w workload, seed int64, n, pool int) *dataset {
	pts := geom.GenUniform(n+pool, coordSpan, seed)
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	d := &dataset{w: w, seed: seed, base: pts[:n:n], pool: pts[n:]}
	if w.catalog {
		crng := rand.New(rand.NewSource(subSeed(seed, 2)))
		// Every shape holds an equal share of the catalog, and the
		// shapes take turns down the ranks, so the hottest entries —
		// which carry most of the reads — span every shape on every
		// seed.
		d.catalog = make([]query, catalogN)
		for i := range d.catalog {
			d.catalog[i] = shapeQuery(crng, shapes[i%len(shapes)])
		}
	}
	return d
}

// streams partitions the base set and the pool into k disjoint
// ownership shares, one op stream per client.
func (d *dataset) streams(k int) []*stream {
	out := make([]*stream, k)
	for i := range out {
		rng := rand.New(rand.NewSource(subSeed(d.seed, 100+int64(k)*10+int64(i))))
		s := &stream{
			w:       d.w,
			rng:     rng,
			catalog: d.catalog,
			live:    append([]geom.Point(nil), d.base[i*len(d.base)/k:(i+1)*len(d.base)/k]...),
			pool:    append([]geom.Point(nil), d.pool[i*len(d.pool)/k:(i+1)*len(d.pool)/k]...),
		}
		if d.catalog != nil {
			s.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(d.catalog)-1))
		}
		out[i] = s
	}
	return out
}

// stream is one client's seeded op sequence. Writes only touch points
// the client owns: inserts pop its pool, deletes pick one of its live
// points, so every delete targets a point that is present. The caller
// reports each write's outcome with ack or fail before asking for the
// next op.
type stream struct {
	w       workload
	rng     *rand.Rand
	zipf    *rand.Zipf
	catalog []query

	live []geom.Point // owned points the server acknowledged as present
	pool []geom.Point // owned points to insert next; acked deletes return here
	head int
	// written holds every point an acknowledged write touched;
	// unknown holds points whose write failed, so their state is open.
	written []geom.Point
	unknown []geom.Point
}

func (s *stream) next() op {
	if s.rng.Float64() < s.w.writeFrac {
		if (s.rng.Intn(4) != 0 || len(s.live) == 0) && s.head < len(s.pool) {
			p := s.pool[s.head]
			s.head++
			return op{kind: opInsert, pt: p}
		}
		i := s.rng.Intn(len(s.live))
		p := s.live[i]
		s.live[i] = s.live[len(s.live)-1]
		s.live = s.live[:len(s.live)-1]
		return op{kind: opDelete, pt: p}
	}
	if s.zipf != nil {
		return op{kind: opRead, q: &s.catalog[s.zipf.Uint64()]}
	}
	q := randQuery(s.rng)
	return op{kind: opRead, q: &q}
}

// ack records that the server acknowledged o.
func (s *stream) ack(o op) {
	switch o.kind {
	case opInsert:
		s.live = append(s.live, o.pt)
		s.written = append(s.written, o.pt)
	case opDelete:
		s.pool = append(s.pool, o.pt)
		s.written = append(s.written, o.pt)
	}
}

// fail records that o's outcome is unknown.
func (s *stream) fail(o op) {
	if o.kind != opRead {
		s.unknown = append(s.unknown, o.pt)
	}
}

// take returns the next n ops, acknowledging each as it goes: the
// single-client replay streams, whose every write must succeed.
func (s *stream) take(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.next()
		s.ack(ops[i])
	}
	return ops
}

// subSeed derives an independent seed for one purpose (splitmix64).
func subSeed(seed, tag int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(tag)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
