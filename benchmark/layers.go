package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/vfs"
)

// merge sums two load windows (sample end offsets stay per-window).
func merge(a, b loadResult) loadResult {
	return loadResult{
		samples:   append(a.samples, b.samples...),
		attempted: a.attempted + b.attempted,
		failed:    a.failed + b.failed,
		elapsed:   a.elapsed + b.elapsed,
	}
}

func (r loadResult) rate() float64 { return ratio(float64(r.completed()), r.elapsed.Seconds()) }

func (r loadResult) writes() int {
	n := 0
	for _, s := range r.samples {
		if s.write {
			n++
		}
	}
	return n
}

// tracedRun measures the per-layer metrics, all from outside the
// program: it serves the namespace through the handler middleware and
// the counting filesystem, alternates untraced and traced load windows
// (their throughput ratio is the tracing overhead), reads /stats
// deltas around the traced windows, runs the post-window checks, and
// then replays one single-client op stream against every layer.
func tracedRun(cfg config) (*result, error) {
	d := newDataset(cfg.w, cfg.seed, cfg.n, cfg.pool)
	tr := newTracer()
	fs := &countFS{FS: vfs.OS}
	svc, st, err := startService(d, cfg.tmp, fs, tr.wrap)
	if err != nil {
		return nil, err
	}
	streams := d.streams(clients)
	ab := &abort{}
	runLoad(svc, streams, warmup(cfg.seconds), nil, ab)

	// Untraced and traced windows run in the order plain, traced,
	// traced, plain, so host drift and the structures' growth over the
	// run fall on both sides alike.
	win := cfg.seconds / 10
	var plain, traced loadResult
	var ns nsStats
	var fsd fsCounts
	var walUS []float64
	for _, withSpans := range []bool{false, true, true, false} {
		if !withSpans {
			plain = merge(plain, runLoad(svc, streams, win, nil, ab))
			continue
		}
		s0, err := svc.stats()
		if err != nil {
			return nil, err
		}
		f0 := fs.counts()
		lr := runLoad(svc, streams, win, tr, ab)
		s1, err := svc.stats()
		if err != nil {
			return nil, err
		}
		f1 := fs.counts()
		traced = merge(traced, lr)
		ns = ns.add(s1.sub(s0))
		fsd = fsd.add(f1.sub(f0))
		fs.mu.Lock()
		walUS = append(walUS, fs.walAppendUS[f0.walAppends:f1.walAppends]...)
		fs.mu.Unlock()
	}
	res := &result{Correct: true, Attempted: plain.attempted + traced.attempted, Failed: plain.failed + traced.failed}
	checkpoint := finish(res, svc, d, streams, ab)
	lifetime := fs.counts()

	// Wire and handler, from the traced windows' spans.
	rtts, handlers := tr.byName("http.rtt"), tr.byName("serve.handler")
	var rtt, wire, handler []float64
	for id, r := range rtts {
		rtt = append(rtt, us(r.dur()))
		if h, ok := handlers[id]; ok {
			wire = append(wire, us(r.dur()-h.dur()))
		}
	}
	for _, h := range handlers {
		handler = append(handler, us(h.dur()))
	}
	res.set("http.rtt_us_p50", percentile(rtt, 0.5), "us")
	res.set("http.wire_us_p50", percentile(wire, 0.5), "us")
	res.set("serve.handler_us_p50", percentile(handler, 0.5), "us")
	res.set("serve.handler_us_p99", percentile(handler, 0.99), "us")
	res.set("trace.overhead_pct", 100*ratio(plain.rate()-traced.rate(), plain.rate()), "%")

	// Counters of the traced windows.
	writes := float64(traced.writes())
	res.set("cache.hit_ratio", ratio(float64(ns.Cache.Hits), float64(ns.Cache.Hits+ns.Cache.Misses)), "ratio")
	res.set("cache.invalidations_per_write", ratio(float64(ns.Cache.Invalidations), writes), "entries/write")
	res.set("queue.read_drain_share", ratio(float64(ns.Queue.ReadDrains), float64(ns.Queue.Enqueued)), "ratio")
	// Each queue drain is one logged batch, so WAL appends count drains.
	res.set("queue.writes_per_drain", ratio(float64(ns.Queue.Drained), float64(fsd.walAppends)), "writes/drain")
	res.set("wal.bytes_per_write", ratio(float64(fsd.walBytes), writes), "B/write")
	res.set("wal.records_per_write", ratio(float64(fsd.walAppends), writes), "records/write")
	res.set("wal.append_us_p50", percentile(walUS, 0.5), "us")
	res.set("vfs.bytes_written_per_write", ratio(float64(fsd.bytes), writes), "B/write")
	res.set("vfs.syncs", float64(lifetime.syncs), "count")
	res.set("pager.recover_s", st.reopen.Seconds(), "s")
	res.set("pager.checkpoint_s", checkpoint.Seconds(), "s")
	if !cfg.w.async {
		res.note("queue.* are 0: %s writes synchronously, without the async queue", cfg.w.name)
	}

	ops := d.streams(1)[0].take(cfg.replay)
	lad, err := ladder(d, cfg.tmp, ops, tr)
	if err == nil {
		runs := make([]*replayed, 0, len(lad.runs))
		for _, r := range lad.runs {
			runs = append(runs, r)
		}
		err = agree(lad.runs["core"], runs, ops)
	}
	if err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", err)
		lad = nil
	}
	ladderMetrics(res, lad, ops)
	res.note("traced windows: %d ops (%d writes), untraced windows: %d ops; replay ladder: %d ops on every layer",
		traced.completed(), traced.writes(), plain.completed(), len(ops))
	out := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.w.name, cfg.seed))
	if err := tr.write(out); err != nil {
		return nil, err
	}
	res.note("spans written to %s", out)
	return res, nil
}

// ladderMetrics derives the per-layer metrics from the replays: each
// layer's own latency, and each optional layer's marginal cost (mean
// with the layer minus mean without it; negative when the layer saves
// time). A nil ladder — a replay failed its checks — reports zeros.
func ladderMetrics(res *result, lad *rungs, ops []op) {
	get := func(name string) *replayed {
		if lad == nil || lad.runs[name] == nil {
			return &replayed{served: make([]bool, len(ops)), us: make([]float64, len(ops)),
				allocs: make([]float64, len(ops)), ios: make([]float64, len(ops))}
		}
		return lad.runs[name]
	}
	core := get("core")
	p50 := func(r *replayed, read bool) float64 {
		rs, ws := r.perKind(r.us, ops)
		if read {
			return percentile(rs, 0.5)
		}
		return percentile(ws, 0.5)
	}
	res.set("core.read_us_p50", p50(core, true), "us")
	res.set("core.write_us_p50", p50(core, false), "us")
	ar, aw := core.meanKind(core.allocs, ops)
	res.set("core.allocs_per_read", ar, "allocs/op")
	res.set("core.allocs_per_write", aw, "allocs/op")

	// marginal compares core with the core variant lacking one layer.
	marginal := func(without string, xs func(*replayed) []float64) (read, write float64) {
		if lad == nil || lad.runs[without] == nil {
			return 0, 0
		}
		w := lad.runs[without]
		r1, w1 := core.meanKind(xs(core), ops)
		r0, w0 := w.meanKind(xs(w), ops)
		return r1 - r0, w1 - w0
	}
	wall := func(r *replayed) []float64 { return r.us }
	ios := func(r *replayed) []float64 { return r.ios }
	cr, _ := marginal("core-nocache", wall)
	res.set("cache.marginal_us_per_read", cr, "us")
	mr, mw := marginal("core-nomirror", wall)
	mio, _ := marginal("core-nomirror", ios)
	res.set("mirror.marginal_us_per_read", mr, "us")
	res.set("mirror.marginal_us_per_write", mw, "us")
	res.set("mirror.marginal_ios_per_read", mio, "ios/op")
	qr, qw := marginal("core-noqueue", wall)
	res.set("queue.marginal_us_per_read", qr, "us")
	res.set("queue.marginal_us_per_write", qw, "us")
	_, dw := marginal("core-nodir", wall)
	res.set("wal.marginal_us_per_write", dw, "us")

	// serve's self time: the in-process handler minus core, per op.
	handler := get("handler")
	var self []float64
	for i := range ops {
		if handler.served[i] && core.served[i] {
			self = append(self, handler.us[i]-core.us[i])
		}
	}
	res.set("serve.self_us_p50", percentile(self, 0.5), "us")

	// The shard engine, and its fan-out/merge: the engine's read minus
	// the paper structure's read of the same op.
	sh, dyn, four := get("shard"), get("dyntop"), get("foursided")
	res.set("shard.read_us_p50", p50(sh, true), "us")
	res.set("shard.write_us_p50", p50(sh, false), "us")
	var fan []float64
	reads := 0
	for i, o := range ops {
		if o.kind != opRead {
			continue
		}
		reads++
		switch {
		case sh.served[i] && dyn.served[i]:
			fan = append(fan, sh.us[i]-dyn.us[i])
		case sh.served[i] && four.served[i]:
			fan = append(fan, sh.us[i]-four.us[i])
		}
	}
	res.set("shard.fanout_us_p50", percentile(fan, 0.5), "us")
	res.set("shard.points_per_query", ratio(float64(sh.points), float64(reads)), "points/query")

	for name, s := range map[string]*replayed{"dyntop": dyn, "foursided": four} {
		res.set(name+".query_us_p50", p50(s, true), "us")
		res.set(name+".update_us_p50", p50(s, false), "us")
		_, a := s.meanKind(s.allocs, ops)
		res.set(name+".allocs_per_update", a, "allocs/op")
	}

	// emio: the two structures' simulated I/Os per op and their space.
	// Their reads are disjoint (one shape family each); both take
	// every write.
	dynR, dynW := dyn.perKind(dyn.ios, ops)
	fourR, fourW := four.perKind(four.ios, ops)
	res.set("emio.ios_per_read", ratio(sum(dynR)+sum(fourR), float64(reads)), "ios/op")
	res.set("emio.ios_per_write", ratio(sum(dynW)+sum(fourW), float64(len(ops)-reads)), "ios/op")
	blocks := 0.0
	if lad != nil {
		blocks = lad.blocksPerNB
	}
	res.set("emio.blocks_per_nB", blocks, "ratio")
}
