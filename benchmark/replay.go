package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dyntop"
	"repro/internal/emio"
	"repro/internal/foursided"
	"repro/internal/geom"
	"repro/internal/shard"
)

// replayOps is the length of the single-client op stream every layer
// replays in the traced run.
const replayOps = 3000

// target is one layer's public entry point, driven by a replay.
type target interface {
	// do applies o; false means o is a read this layer does not serve
	// (each paper structure serves one family of shapes).
	do(o op) bool
	// result returns the last read's answer, or the last op's failure
	// (a delete of a live point that missed counts as one).
	result() ([]geom.Point, error)
	// ios returns the simulated I/Os charged so far.
	ios() uint64
}

var errMissed = errors.New("delete of a live point removed nothing")

// coreTarget drives core.DB through the calls the HTTP handler makes
// for single-point writes: one-point batches.
type coreTarget struct {
	db   *core.DB
	last []geom.Point
	err  error
}

func (t *coreTarget) do(o op) bool {
	t.last, t.err = nil, nil
	switch o.kind {
	case opRead:
		t.last = t.db.RangeSkyline(o.q.rect)
	case opInsert:
		t.err = t.db.BatchInsert([]geom.Point{o.pt})
	default:
		removed, err := t.db.BatchDeleteRemoved([]geom.Point{o.pt})
		t.err = missed(len(removed), err)
	}
	return true
}

func (t *coreTarget) result() ([]geom.Point, error) { return t.last, t.err }
func (t *coreTarget) ios() uint64                   { return t.db.Stats().IOs() }

func missed(removed int, err error) error {
	if err == nil && removed != 1 {
		return errMissed
	}
	return err
}

// shardTarget drives the sharded engine directly: no planner, mirror,
// cache, queue or log.
type shardTarget struct {
	e    *shard.Engine
	last []geom.Point
	err  error
}

func (t *shardTarget) do(o op) bool {
	t.last, t.err = nil, nil
	switch o.kind {
	case opRead:
		t.last = t.e.RangeSkyline(o.q.rect)
	case opInsert:
		t.err = t.e.BatchInsert([]geom.Point{o.pt})
	default:
		removed, err := t.e.BatchDeleteRemoved([]geom.Point{o.pt})
		t.err = missed(len(removed), err)
	}
	return true
}

func (t *shardTarget) result() ([]geom.Point, error) { return t.last, t.err }
func (t *shardTarget) ios() uint64                   { return t.e.Stats().IOs() }

// dyntopTarget is the Theorem 4 tree alone on its own disk: it serves
// the top-open family (top-open, dominance, contour) and every write.
type dyntopTarget struct {
	disk *emio.Disk
	tree *dyntop.Tree
	last []geom.Point
	err  error
}

func (t *dyntopTarget) do(o op) bool {
	t.last, t.err = nil, nil
	switch o.kind {
	case opRead:
		if !o.q.rect.IsTopOpen() {
			return false
		}
		t.last = t.tree.Query(o.q.rect.X1, o.q.rect.X2, o.q.rect.Y1)
	case opInsert:
		t.tree.Insert(o.pt)
	default:
		if !t.tree.Delete(o.pt) {
			t.err = errMissed
		}
	}
	return true
}

func (t *dyntopTarget) result() ([]geom.Point, error) { return t.last, t.err }
func (t *dyntopTarget) ios() uint64                   { return t.disk.Stats().IOs() }

// foursidedTarget is the Theorem 6 structure alone on its own disk: it
// serves every shape outside the top-open family and every write.
type foursidedTarget struct {
	disk *emio.Disk
	ix   *foursided.Index
	last []geom.Point
	err  error
}

func (t *foursidedTarget) do(o op) bool {
	t.last, t.err = nil, nil
	switch o.kind {
	case opRead:
		if o.q.rect.IsTopOpen() {
			return false
		}
		t.last = t.ix.Query(o.q.rect)
	case opInsert:
		t.ix.Insert(o.pt)
	default:
		if !t.ix.Delete(o.pt) {
			t.err = errMissed
		}
	}
	return true
}

func (t *foursidedTarget) result() ([]geom.Point, error) { return t.last, t.err }
func (t *foursidedTarget) ios() uint64                   { return t.disk.Stats().IOs() }

// preparer is a target with per-op set-up that is not the layer's own
// work; replay runs it before starting the clock.
type preparer interface{ prepare(o op) }

// handlerTarget calls the HTTP handler in-process: routing, decoding,
// the group-commit combiner and encoding, without the network.
type handlerTarget struct {
	h   http.Handler
	req *http.Request
	rec *httptest.ResponseRecorder
	o   op
}

func (t *handlerTarget) prepare(o op) {
	t.o, t.req, t.rec = o, request("http://replay/v1/"+nsName, o), httptest.NewRecorder()
}

func (t *handlerTarget) do(op) bool {
	t.h.ServeHTTP(t.rec, t.req)
	return true
}

func (t *handlerTarget) result() ([]geom.Point, error) {
	if t.rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", t.rec.Code, t.rec.Body.String())
	}
	var r reply
	if err := json.Unmarshal(t.rec.Body.Bytes(), &r); err != nil {
		return nil, err
	}
	if err := checkReply(t.o, &r); err != nil {
		return nil, err
	}
	if t.o.kind != opRead {
		return nil, nil
	}
	return r.points(), nil
}

func (t *handlerTarget) ios() uint64 { return 0 }

// replayed is one layer's replay of the op stream, per op.
type replayed struct {
	name   string
	served []bool
	us     []float64      // wall time of the call
	allocs []float64      // heap allocations during the call
	ios    []float64      // simulated I/Os charged to the call
	answer [][]geom.Point // reads only; not to be modified (cache hits share them)
	points int            // answer points reported
}

// replay applies ops to t in order, one at a time, timing each call
// and, with countAllocs, counting its allocations (two stop-the-world
// readings per op, outside the timed call). Each call is also recorded
// as a span named "replay.<name>" with the op's index as its id.
func replay(name string, t target, ops []op, countAllocs bool, tr *tracer) (*replayed, error) {
	r := &replayed{
		name:   name,
		served: make([]bool, len(ops)),
		us:     make([]float64, len(ops)),
		allocs: make([]float64, len(ops)),
		ios:    make([]float64, len(ops)),
		answer: make([][]geom.Point, len(ops)),
	}
	var m0, m1 runtime.MemStats
	prep, _ := t.(preparer)
	for i, o := range ops {
		if prep != nil {
			prep.prepare(o)
		}
		io0 := t.ios()
		if countAllocs {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		served := t.do(o)
		t1 := time.Now()
		if countAllocs {
			runtime.ReadMemStats(&m1)
		}
		if !served {
			continue
		}
		pts, err := t.result()
		if err != nil {
			return nil, fmt.Errorf("%s replay, op %d: %w", name, i, err)
		}
		r.served[i] = true
		r.us[i] = us(t1.Sub(t0))
		r.allocs[i] = float64(m1.Mallocs - m0.Mallocs)
		r.ios[i] = float64(t.ios() - io0)
		if o.kind == opRead {
			r.answer[i] = pts
			r.points += len(pts)
		}
		if tr != nil {
			tr.add(span{Name: "replay." + name, Start: tr.at(t0), End: tr.at(t1), Op: int64(i)})
		}
	}
	return r, nil
}

// agree checks that every replay answered every read it served exactly
// as ref did.
func agree(ref *replayed, others []*replayed, ops []op) error {
	for _, r := range others {
		for i, o := range ops {
			if o.kind == opRead && r.served[i] && !slices.Equal(r.answer[i], ref.answer[i]) {
				return fmt.Errorf("replay %s answers op %d (%v) differently from %s", r.name, i, o.q.rect, ref.name)
			}
		}
	}
	return nil
}

// perKind splits a per-op series into the reads' and the writes' values
// among the ops r served.
func (r *replayed) perKind(xs []float64, ops []op) (reads, writes []float64) {
	for i, o := range ops {
		if !r.served[i] {
			continue
		}
		if o.kind == opRead {
			reads = append(reads, xs[i])
		} else {
			writes = append(writes, xs[i])
		}
	}
	return reads, writes
}

// meanKind is the mean of xs over r's served reads and writes.
func (r *replayed) meanKind(xs []float64, ops []op) (read, write float64) {
	rs, ws := r.perKind(xs, ops)
	return mean(rs), mean(ws)
}

// coreVariant is one rung of the ablation ladder: the namespace's
// core.Options with at most one optional layer removed.
type coreVariant struct {
	name  string
	strip func(*core.Options)
}

// rungs are the ladder's replays by name, plus the paper structures'
// space after the stream.
type rungs struct {
	runs        map[string]*replayed
	blocksPerNB float64
}

// ladder builds each layer over the base set, replays ops against it
// and releases it before the next: the in-process handler, core.DB with
// the namespace's options and with each optional layer removed, the
// shard engine, and the two paper structures.
func ladder(d *dataset, parent string, ops []op, tr *tracer) (*rungs, error) {
	out := map[string]*replayed{}
	svc, _, err := startService(d, parent, nil, nil)
	if err != nil {
		return nil, err
	}
	r, err := replay("handler", &handlerTarget{h: svc.srv.Handler()}, ops, false, tr)
	if serr := svc.stop(); err == nil {
		err = serr
	}
	os.RemoveAll(svc.dir)
	if err != nil {
		return nil, err
	}
	out["handler"] = r

	variants := []coreVariant{
		{name: "core", strip: func(*core.Options) {}},
		{name: "core-nocache", strip: func(o *core.Options) { o.CacheEntries = 0 }},
		{name: "core-nomirror", strip: func(o *core.Options) { o.Mirrors = false }},
		{name: "core-nodir", strip: func(o *core.Options) { o.Dir = "" }},
	}
	if d.w.async {
		variants = append(variants, coreVariant{name: "core-noqueue", strip: func(o *core.Options) { o.AsyncWrites = false }})
	}
	for _, v := range variants {
		dir, err := os.MkdirTemp(parent, "core-")
		if err != nil {
			return nil, err
		}
		opts := d.w.nsConfig(dir).Options()
		v.strip(&opts)
		db, err := core.Open(opts, d.base)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		r, err := replay(v.name, &coreTarget{db: db}, ops, v.name == "core", tr)
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		out[v.name] = r
	}

	sorted := append([]geom.Point(nil), d.base...)
	geom.SortByX(sorted)
	machine := emio.Config{B: machineB, M: machineM}
	e, err := shard.New(shard.Options{Machine: machine, Shards: 2, Workers: 2, Dynamic: true}, sorted)
	if err != nil {
		return nil, err
	}
	r, err = replay("shard", &shardTarget{e: e}, ops, false, tr)
	e.Quiesce()
	if err != nil {
		return nil, err
	}
	out["shard"] = r

	dd := emio.NewDisk(machine)
	tree := dyntop.BuildSABE(dd, 0.5, sorted)
	r, err = replay("dyntop", &dyntopTarget{disk: dd, tree: tree}, ops, true, tr)
	if err != nil {
		return nil, err
	}
	out["dyntop"] = r
	fd := emio.NewDisk(machine)
	r, err = replay("foursided", &foursidedTarget{disk: fd, ix: foursided.Build(fd, 0.5, sorted)}, ops, true, tr)
	if err != nil {
		return nil, err
	}
	out["foursided"] = r
	// The paper's space: both structures' live blocks over n/B, for
	// the n the stream ends with.
	space := float64(dd.LiveBlocks()+fd.LiveBlocks()) / (float64(tree.Len()) / machineB)
	return &rungs{runs: out, blocksPerNB: space}, nil
}
