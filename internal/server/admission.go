package server

import (
	"sync"
	"sync/atomic"
	"time"

	"udbench/internal/metrics"
	"udbench/internal/workload"
)

// AdmissionSnapshot is the server's cumulative admission-control
// telemetry. Counters only ever grow; QueueDepthMax is a high
// watermark; QueueWaitP99NS is the p99 of the time admitted requests
// spent queued before a worker picked them up.
type AdmissionSnapshot struct {
	// Admitted counts requests a worker executed.
	Admitted int64 `json:"admitted"`
	// ShedQueueFull counts requests rejected at arrival because the
	// bounded queue was full.
	ShedQueueFull int64 `json:"shed_queue_full"`
	// ShedDeadline counts requests rejected at dequeue because their
	// queue wait had already exceeded their deadline budget.
	ShedDeadline int64 `json:"shed_deadline"`
	// QueueDepthMax is the deepest the queue has ever been.
	QueueDepthMax int64 `json:"queue_depth_max"`
	// QueueWaitP99NS is the p99 queue wait of admitted requests.
	QueueWaitP99NS time.Duration `json:"queue_wait_p99_ns"`
}

// Shed is the total number of shed requests, either reason.
func (s AdmissionSnapshot) Shed() int64 { return s.ShedQueueFull + s.ShedDeadline }

// Workload converts the snapshot into the driver-facing telemetry
// block merged into RunSummary JSON.
func (s AdmissionSnapshot) Workload() workload.AdmissionStats {
	return workload.AdmissionStats{
		QueueDepthMax:  s.QueueDepthMax,
		Shed:           s.Shed(),
		QueueWaitP99NS: s.QueueWaitP99NS,
	}
}

// admitted is the verdict of the queue for one request.
type admitVerdict int

const (
	verdictAdmitted admitVerdict = iota
	verdictShedFull
	verdictShedDeadline
)

// task is one admitted unit of work: the decoded request plus where to
// send the response and when the request entered the queue.
type task struct {
	c   *conn
	req request
	enq time.Time
}

// admission is the bounded request queue in front of the engine. The
// channel's buffer IS the bound: offers to a full queue fail
// immediately (shed at arrival), and requests whose wait exceeded the
// queue deadline by dequeue time are shed then (deadline-aware
// shedding) — a request that would have been served hopelessly late is
// rejected with a typed overload response instead, which is what keeps
// the served tail bounded while the offered load exceeds capacity.
type admission struct {
	queue    chan task
	quit     chan struct{}
	deadline time.Duration // max queue wait before shedding; 0 never sheds

	depth        atomic.Int64
	depthMax     atomic.Int64
	admitted     atomic.Int64
	shedFull     atomic.Int64
	shedDeadline atomic.Int64
	wait         metrics.Histogram // queue wait of admitted requests

	workers sync.WaitGroup
}

func newAdmission(queueDepth int, deadline time.Duration) *admission {
	if queueDepth <= 0 {
		queueDepth = 256
	}
	return &admission{
		queue:    make(chan task, queueDepth),
		quit:     make(chan struct{}),
		deadline: deadline,
	}
}

// offer enqueues t, or reports a queue-full shed without blocking: the
// reader goroutine must never stall behind the engine, or backpressure
// would silently close the open loop the remote driver relies on.
func (a *admission) offer(t task) admitVerdict {
	select {
	case a.queue <- t:
		d := a.depth.Add(1)
		for {
			m := a.depthMax.Load()
			if d <= m || a.depthMax.CompareAndSwap(m, d) {
				break
			}
		}
		return verdictAdmitted
	default:
		a.shedFull.Add(1)
		return verdictShedFull
	}
}

// take dequeues the next task for a worker and rules on its deadline.
// ok=false means the admission layer is shutting down.
func (a *admission) take() (task, admitVerdict, time.Duration, bool) {
	select {
	case <-a.quit:
		return task{}, verdictShedFull, 0, false
	case t := <-a.queue:
		a.depth.Add(-1)
		wait := time.Since(t.enq)
		if a.deadline > 0 && wait > a.deadline {
			a.shedDeadline.Add(1)
			return t, verdictShedDeadline, wait, true
		}
		a.admitted.Add(1)
		a.wait.Observe(wait)
		return t, verdictAdmitted, wait, true
	}
}

// start spawns n workers running exec for every admitted task and
// shedResp for every deadline-shed one.
func (a *admission) start(n int, exec func(task), shed func(task)) {
	for i := 0; i < n; i++ {
		a.workers.Add(1)
		go func() {
			defer a.workers.Done()
			for {
				t, verdict, _, ok := a.take()
				if !ok {
					return
				}
				if verdict == verdictShedDeadline {
					shed(t)
					continue
				}
				exec(t)
			}
		}()
	}
}

// stop signals the workers and waits for them to exit. Queued tasks
// still in the channel are abandoned unanswered — their connections
// are being torn down with the server anyway.
func (a *admission) stop() {
	close(a.quit)
	a.workers.Wait()
}

// snapshot captures the cumulative telemetry.
func (a *admission) snapshot() AdmissionSnapshot {
	return AdmissionSnapshot{
		Admitted:       a.admitted.Load(),
		ShedQueueFull:  a.shedFull.Load(),
		ShedDeadline:   a.shedDeadline.Load(),
		QueueDepthMax:  a.depthMax.Load(),
		QueueWaitP99NS: a.wait.Percentile(99),
	}
}
