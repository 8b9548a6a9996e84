// LogBackend: the write-ahead-logging layer of the engine. It wraps
// any Backend and appends every update batch to an UpdateLog BEFORE
// applying it — the write-ahead rule — so a crash after an
// acknowledged write can always be replayed. In core.DB's durable
// stack it sits between the async queue and the cache:
//
//	AsyncQueue → LogBackend → CacheBackend → Planner
//
// which makes the queue's drain batches the natural log unit: one
// record per BatchInsert/BatchDeleteRemoved a drain applies, exactly
// the granularity the structures take their locks at. Reads pass
// straight through.
//
// The backend also maintains the live point set — the content of the
// next checkpoint snapshot. Tracking it here (rather than asking the
// structures to enumerate themselves) costs one map update per applied
// write and gives Checkpoint a consistent cut: the mutex that
// serializes log-append + apply + live-set update is the one
// Checkpoint holds while materializing the snapshot, so a snapshot at
// sequence S contains exactly the effects of records 1..S.
//
// The write-ahead rule has a deliberate asymmetry on failure: the
// record becomes durable BEFORE the apply, so when the apply then
// fails the caller gets an error — the write is NOT acknowledged —
// while the log still holds the record. A crash before the next
// checkpoint replays that record, so an unacknowledged write can
// appear after recovery (a phantom); a checkpoint instead drops it for
// good (the live set never absorbed it, and the truncate discards the
// record). The alternative — logging after applying — would lose
// ACKNOWLEDGED writes on a crash between the two, which is strictly
// worse, and compensating records would buy exactness only at the
// price of a second append on every failure path. Apply errors in this
// repository mean structure corruption; callers observing one should
// treat rebuild-from-log (reopen) as the recovery, which is exactly
// why core skips checkpoints while a drain error is latched.
//
// Serializing writes through one mutex is a deliberate simplification:
// a write-ahead log is a single append stream anyway, batches amortize
// the serialization exactly as they amortize the structure locks, and
// only the durable configuration pays it (a DB without Options.Dir has
// no LogBackend in its stack).
package engine

import (
	"sync"

	"repro/internal/emio"
	"repro/internal/geom"
)

// UpdateLog is the sink a LogBackend appends update batches to before
// applying them. core.DB implements it over internal/wal; tests
// implement it in memory.
type UpdateLog interface {
	// LogBatch durably records one batch — dels applying before inss.
	// An error means the batch is NOT acknowledged: the backend will
	// not apply it.
	LogBatch(dels, inss []geom.Point) error
}

// LogBackend is a write-ahead-logging Backend wrapper. It implements
// Backend (and the removed-subset batch-delete the queue's drains
// prefer); every mutation is logged, applied, and folded into the
// live point set under one mutex.
type LogBackend struct {
	inner Backend
	log   UpdateLog

	mu   sync.Mutex
	live map[geom.Point]struct{}
}

// NewLogBackend wraps inner, logging to log. initial is the point set
// inner currently holds (the snapshot recovery loaded plus whatever it
// replayed, for core's durable open).
func NewLogBackend(inner Backend, log UpdateLog, initial []geom.Point) *LogBackend {
	lb := &LogBackend{
		inner: inner,
		log:   log,
		live:  make(map[geom.Point]struct{}, len(initial)),
	}
	for _, p := range initial {
		lb.live[p] = struct{}{}
	}
	return lb
}

// Inner returns the wrapped backend.
func (lb *LogBackend) Inner() Backend { return lb.inner }

// Live returns the current live point count.
func (lb *LogBackend) Live() int {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return len(lb.live)
}

// RangeSkyline passes through: reads are not logged.
func (lb *LogBackend) RangeSkyline(q geom.Rect) []geom.Point {
	return lb.inner.RangeSkyline(q)
}

// Insert logs then applies a single insert. On apply failure the
// logged record persists and a pre-checkpoint crash replays it; see
// the failure-asymmetry note in the package comment.
func (lb *LogBackend) Insert(p geom.Point) error {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if err := lb.log.LogBatch(nil, []geom.Point{p}); err != nil {
		return err
	}
	if err := lb.inner.Insert(p); err != nil {
		return err
	}
	lb.live[p] = struct{}{}
	return nil
}

// Delete logs then applies a single delete. A miss is logged too — the
// log cannot know presence ahead of the structures — and replaying a
// miss through the presence-check-first paths applies nothing, so the
// spurious record is harmless.
func (lb *LogBackend) Delete(p geom.Point) (bool, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if err := lb.log.LogBatch([]geom.Point{p}, nil); err != nil {
		return false, err
	}
	ok, err := lb.inner.Delete(p)
	if ok {
		delete(lb.live, p)
	}
	return ok, err
}

// BatchInsert logs then applies the batch.
func (lb *LogBackend) BatchInsert(pts []geom.Point) error {
	if len(pts) == 0 {
		return nil
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if err := lb.log.LogBatch(nil, pts); err != nil {
		return err
	}
	if err := lb.inner.BatchInsert(pts); err != nil {
		return err
	}
	for _, p := range pts {
		lb.live[p] = struct{}{}
	}
	return nil
}

// BatchDelete logs then applies the batch, reporting how many points
// were present and removed.
func (lb *LogBackend) BatchDelete(pts []geom.Point) (int, error) {
	removed, err := lb.BatchDeleteRemoved(pts)
	return len(removed), err
}

// BatchDeleteRemoved logs then applies the batch, reporting the
// removed subset (the queue's drains and the planner's fan-out need
// it; the live set needs it too, which is why the count-only form
// funnels through here).
func (lb *LogBackend) BatchDeleteRemoved(pts []geom.Point) ([]geom.Point, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if err := lb.log.LogBatch(pts, nil); err != nil {
		return nil, err
	}
	removed, err := lb.applyDeletes(pts)
	for _, p := range removed {
		delete(lb.live, p)
	}
	return removed, err
}

// applyDeletes applies a delete batch to inner, reporting the removed
// subset: through the inner backend's removed-subset path when it has
// one (every stack core builds does), point-by-point otherwise.
func (lb *LogBackend) applyDeletes(pts []geom.Point) ([]geom.Point, error) {
	if rep, ok := lb.inner.(batchDeleteReporter); ok {
		return rep.BatchDeleteRemoved(pts)
	}
	var removed []geom.Point
	var firstErr error
	for _, p := range pts {
		ok, err := lb.inner.Delete(p)
		if ok {
			removed = append(removed, p)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return removed, firstErr
}

// Replay applies one recovered log record — dels before inss, the
// order drains use — WITHOUT logging it again, and folds it into the
// live set. It returns how many deletes hit. Recovery calls it for
// every record after the checkpoint sequence.
func (lb *LogBackend) Replay(dels, inss []geom.Point) (int, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	var removed []geom.Point
	var firstErr error
	if len(dels) > 0 {
		removed, firstErr = lb.applyDeletes(dels)
		for _, p := range removed {
			delete(lb.live, p)
		}
	}
	if len(inss) > 0 {
		err := lb.inner.BatchInsert(inss)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			for _, p := range inss {
				lb.live[p] = struct{}{}
			}
		}
	}
	return len(removed), firstErr
}

// Checkpoint materializes the live point set — sorted by x, the order
// every build path expects — and passes it to fn while holding the
// write mutex, so the snapshot fn persists is a consistent cut: no
// log append can land between the set being read and fn returning.
func (lb *LogBackend) Checkpoint(fn func(live []geom.Point) error) error {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	pts := make([]geom.Point, 0, len(lb.live))
	for p := range lb.live {
		pts = append(pts, p)
	}
	geom.SortByX(pts)
	return fn(pts)
}

// Stats forwards to the wrapped backend: logging performs no simulated
// I/O (the log is real storage, measured by its own layer).
func (lb *LogBackend) Stats() emio.Stats { return lb.inner.Stats() }

// ResetStats forwards to the wrapped backend.
func (lb *LogBackend) ResetStats() { lb.inner.ResetStats() }

// assert interface satisfaction, including the removed-subset path the
// queue's drains prefer.
var _ Backend = (*LogBackend)(nil)
var _ batchDeleteReporter = (*LogBackend)(nil)
