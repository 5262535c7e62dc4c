package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"udbench/internal/workload"
)

// Span layers. A driver.op span covers one MixItem.Run call as the
// client sees it; an engine.op span covers one Backend/TxnEngine call
// on the engine itself (behind the server when the workload is served).
const (
	layerDriver = iota
	layerEngine
)

var layerNames = [...]string{"driver.op", "engine.op"}

// classNames are the op classes a span can carry: the thirteen queries,
// the four mix transactions, and analytics-ro's whole Q1–Q13 pass.
var classNames = func() []string {
	names := make([]string, 0, 18)
	for _, q := range workload.AllQueries {
		names = append(names, q.String())
	}
	return append(names, "T1", "T2", "T3", "T4", "pass")
}()

const (
	classT1 = 13 + iota
	classT2
	classT3
	classT4
)

func classOf(name string) uint8 {
	for i, n := range classNames {
		if n == name {
			return uint8(i)
		}
	}
	panic("bench: unknown op class " + name)
}

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the round's epoch. Client and Seq are the driver's
// stamp on the request (-1 when a call carries none); the spans of one
// request, on both sides of the wire, share them.
type span struct {
	Layer  uint8
	Class  uint8
	OK     bool
	Client int16
	Seq    int32
	Start  int64
	End    int64
}

// recorder collects spans into a slice sized from the known op count,
// so recording is one atomic add and one store and never allocates.
type recorder struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	// firstErr keeps one failed op's error for the failure report.
	firstErr atomic.Pointer[error]
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(layer, class uint8, p workload.Params, start int64, err error) {
	end := r.now()
	if err != nil {
		r.firstErr.CompareAndSwap(nil, &err)
	}
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	client, seq := requestOf(p.FreshID)
	r.spans[i] = span{Layer: layer, Class: class, OK: err == nil, Client: client, Seq: seq, Start: start, End: end}
}

// reset discards what set-up and the output checks recorded, so the
// capacity is all there for the timed run.
func (r *recorder) reset() {
	r.n.Store(0)
	r.dropped.Store(0)
	r.firstErr.Store(nil)
}

func (r *recorder) recorded() []span { return r.spans[:min(r.n.Load(), int64(len(r.spans)))] }

// requestOf reads the client and sequence numbers back out of the
// driver's fresh order id ("o-new-r<run>-<client:3>-<seq:8>"), the only
// per-request stamp a MixItem.Run call receives; it travels over the
// wire inside the params of every op.
func requestOf(freshID string) (client int16, seq int32) {
	n := len(freshID)
	if n < 13 || freshID[n-9] != '-' || freshID[n-13] != '-' {
		return -1, -1
	}
	digits := func(s string) int32 {
		v := int32(0)
		for _, d := range []byte(s) {
			if d < '0' || d > '9' {
				return -1
			}
			v = v*10 + int32(d-'0')
		}
		return v
	}
	return int16(digits(freshID[n-12 : n-9])), digits(freshID[n-8:])
}

// wrapMix puts a driver.op span around every item of the mix.
func (r *recorder) wrapMix(mix []workload.MixItem) []workload.MixItem {
	out := make([]workload.MixItem, len(mix))
	for i, m := range mix {
		class, run := classOf(m.Name), m.Run
		out[i] = m
		out[i].Run = func(p workload.Params) error {
			start := r.now()
			err := run(p)
			r.add(layerDriver, class, p, start, err)
			return err
		}
	}
	return out
}

// tracedEngine puts an engine.op span around every call the workloads
// make on the engine. It is handed to the mix builder in process and to
// server.Config.Engine when the workload is served.
type tracedEngine struct {
	workload.Engine
	rec *recorder
}

func (t tracedEngine) RunQuery(q workload.QueryID, p workload.Params) (int, error) {
	start := t.rec.now()
	n, err := t.Engine.RunQuery(q, p)
	t.rec.add(layerEngine, uint8(q-workload.Q1), p, start, err)
	return n, err
}

func (t tracedEngine) OrderUpdate(p workload.Params) error {
	start := t.rec.now()
	err := t.Engine.OrderUpdate(p)
	t.rec.add(layerEngine, classT1, p, start, err)
	return err
}

func (t tracedEngine) NewOrder(p workload.Params) error {
	start := t.rec.now()
	err := t.Engine.NewOrder(p)
	t.rec.add(layerEngine, classT2, p, start, err)
	return err
}

func (t tracedEngine) WriteFeedback(p workload.Params) error {
	start := t.rec.now()
	err := t.Engine.WriteFeedback(p)
	t.rec.add(layerEngine, classT3, p, start, err)
	return err
}

func (t tracedEngine) SnapshotRead(p workload.Params) (bool, error) {
	start := t.rec.now()
	torn, err := t.Engine.SnapshotRead(p)
	t.rec.add(layerEngine, classT4, p, start, err)
	return torn, err
}

// writeTrace writes the spans as one JSON array, one span per line.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[\n")
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"name":%q,"class":%q,"client":%d,"seq":%d,"ok":%t,"start_ns":%d,"end_ns":%d}%s`+"\n",
			layerNames[s.Layer], classNames[s.Class], s.Client, s.Seq, s.OK, s.Start, s.End, sep)
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
