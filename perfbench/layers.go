package main

import (
	"time"

	"caqe/internal/trace"
)

// stampKind classifies one entry of a layer log.
type stampKind uint8

const (
	stStart    stampKind = iota
	stSchedule           // decision, defer or feedback event
	stScan               // PartitionScan op batch
	stJoin               // SignatureJoin op batch
	stDiscard            // region discarded by a generated result
	stDomClose           // DominanceFilter op batch (end of the dominance epilogue)
	stEmission           // one result delivered (from the OnEmit hook)
	stEnd
	stOther
)

// layerTracer is the benchmark's own trace sink: it stamps wall time on
// every engine event and on every delivered result. Both arrive
// synchronously on the executor goroutine, so the log is in execution
// order. Emit batch events are dropped: the engine flushes them lazily,
// right before the next non-emission event, so their wall time marks that
// event rather than the deliveries; the OnEmit stamps mark those.
type layerTracer struct {
	t0  time.Time
	log []stamp

	decisions, defers, discards int
}

type stamp struct {
	at   time.Duration
	kind stampKind
}

func newLayerTracer() *layerTracer { return &layerTracer{t0: time.Now()} }

func (l *layerTracer) add(k stampKind) {
	l.log = append(l.log, stamp{at: time.Since(l.t0), kind: k})
}

func (l *layerTracer) Trace(ev trace.Event) {
	switch ev.Kind {
	case trace.KindStart:
		l.add(stStart)
	case trace.KindDecision:
		l.decisions++
		l.add(stSchedule)
	case trace.KindDefer:
		l.defers++
		l.add(stSchedule)
	case trace.KindFeedback:
		l.add(stSchedule)
	case trace.KindDiscard:
		l.discards++
		l.add(stDiscard)
	case trace.KindOpBatch:
		switch ev.Op {
		case "PartitionScan":
			l.add(stScan)
		case "SignatureJoin":
			l.add(stJoin)
		case "DominanceFilter":
			l.add(stDomClose)
		default:
			l.add(stOther)
		}
	case trace.KindEmit:
	case trace.KindEnd:
		l.add(stEnd)
	default:
		l.add(stOther)
	}
}

// emitted stamps one delivered result; install it through the OnEmit hook.
func (l *layerTracer) emitted() { l.add(stEmission) }

// layerTimes is the wall time of one execution split by layer.
type layerTimes struct {
	plan, join, dominance, emit, schedule time.Duration
}

func (a *layerTimes) add(b layerTimes) {
	a.plan += b.plan
	a.join += b.join
	a.dominance += b.dominance
	a.emit += b.emit
	a.schedule += b.schedule
}

// attribute splits the log's wall time into layers. Each gap between two
// consecutive stamps goes to the layer the earlier stamp opened:
//
//   - start → first scheduling event: planning (partitioning, output-space
//     build, cuboid, shared-skyline set-up and queue seeding);
//   - PartitionScan → SignatureJoin: the tuple-level join;
//   - SignatureJoin or discard → next stamp: dominance (shared-skyline
//     inserts, then region discarding and dependency-edge release, which
//     run inside the DominanceFilter close);
//   - any gap that ends in a delivered result: emission;
//   - everything else (CSM picks, lazy refresh, feedback, and safety
//     vetting after a region's last delivery): scheduling.
func (l *layerTracer) attribute() layerTimes {
	var lt layerTimes
	for i := 1; i < len(l.log); i++ {
		prev, cur := l.log[i-1], l.log[i]
		gap := cur.at - prev.at
		if cur.kind == stEmission {
			lt.emit += gap
			continue
		}
		switch prev.kind {
		case stStart:
			lt.plan += gap
		case stScan:
			lt.join += gap
		case stJoin, stDiscard:
			lt.dominance += gap
		default:
			lt.schedule += gap
		}
	}
	return lt
}
