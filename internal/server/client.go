package server

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"udbench/internal/wal"
	"udbench/internal/workload"
)

// Client is one pipelined protocol connection. Many goroutines may
// call concurrently: each call registers a pending slot keyed by
// request id, writes its frame under the write mutex, and parks until
// the shared reader goroutine routes the matching response back. The
// connection therefore carries as many in-flight requests as there are
// callers — the open-loop driver's spawn-per-op clients multiplex onto
// a small pool without handshaking per op.
type Client struct {
	c      net.Conn
	nextID atomic.Uint64

	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	pending map[uint64]chan response
	err     error // sticky transport error; set once, fails all calls
	done    chan struct{}
}

// Dial connects a client to a server address.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		c:       c,
		pending: make(map[uint64]chan response),
		done:    make(chan struct{}),
	}
	go cl.readLoop()
	return cl, nil
}

// Close tears the connection down; in-flight calls fail.
func (cl *Client) Close() error {
	err := cl.c.Close()
	<-cl.done
	return err
}

// readLoop is the single demultiplexer: it decodes frames and hands
// each response to the pending caller matching its id. Any transport
// or protocol error is terminal — it fails every in-flight and future
// call, so no caller is ever lost waiting on a dead stream.
//
// Termination: the loop ends at the first read or decode error, and
// Close, which waits for it, closes the connection, which makes the
// blocked read fail. A pass never blocks elsewhere: a caller's channel
// has room for its one response, which is sent once, after the id left
// pending.
func (cl *Client) readLoop() {
	var scratch []byte
	var err error
	for {
		var payload []byte
		payload, scratch, err = readFrame(cl.c, scratch)
		if err != nil {
			break
		}
		resp, derr := decodeResponse(payload)
		if derr != nil {
			err = derr
			break
		}
		cl.mu.Lock()
		ch, ok := cl.pending[resp.id]
		if ok {
			delete(cl.pending, resp.id)
		}
		cl.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
	cl.mu.Lock()
	cl.err = fmt.Errorf("server: connection lost: %w", err)
	for id, ch := range cl.pending {
		delete(cl.pending, id)
		close(ch)
	}
	cl.mu.Unlock()
	close(cl.done)
}

// call sends one request and blocks for its response; a non-OK response
// comes back as the typed error of opErr.
func (cl *Client) call(r request) (response, error) {
	r.id = cl.nextID.Add(1)
	ch := make(chan response, 1)
	cl.mu.Lock()
	if cl.err != nil {
		err := cl.err
		cl.mu.Unlock()
		return response{}, err
	}
	cl.pending[r.id] = ch
	cl.mu.Unlock()

	cl.wmu.Lock()
	cl.wbuf = wal.AppendFrame(cl.wbuf[:0], encodeRequest(r))
	_, werr := cl.c.Write(cl.wbuf)
	cl.wmu.Unlock()
	if werr != nil {
		cl.mu.Lock()
		delete(cl.pending, r.id)
		cl.mu.Unlock()
		return response{}, fmt.Errorf("server: write: %w", werr)
	}

	resp, ok := <-ch
	if !ok {
		cl.mu.Lock()
		err := cl.err
		cl.mu.Unlock()
		return response{}, err
	}
	return resp, opErr(resp)
}

// opErr converts a non-OK response into the typed error the driver's
// abort/shed accounting matches on.
func opErr(r response) error {
	switch r.status {
	case StatusOK:
		return nil
	case StatusOverload:
		reason := "queue full"
		if r.shedReason == shedDeadline {
			reason = "deadline exceeded in queue"
		}
		return fmt.Errorf("%w (%s)", ErrOverload, reason)
	}
	return errFromClass(r.errClass, r.errMsg)
}

// Query runs benchmark query q remotely and returns its cardinality.
func (cl *Client) Query(q workload.QueryID, p workload.Params) (int, error) {
	resp, err := cl.call(request{op: opQuery, query: q, params: p})
	if err != nil {
		return 0, err
	}
	return int(resp.value), nil
}

// Txn runs one benchmark transaction remotely. The returned value is
// nonzero only for snapshot reads that observed a torn view.
func (cl *Client) Txn(kind byte, p workload.Params) (uint64, error) {
	resp, err := cl.call(request{op: opTxn, txn: kind, params: p})
	if err != nil {
		return 0, err
	}
	return resp.value, nil
}

// ServerInfo is what the info request advertises: the dataset
// cardinalities clients build parameter generators from, the engine
// name, and the backend's capability descriptor.
type ServerInfo struct {
	Info   workload.Info
	Engine string
	Caps   workload.Capabilities
}

// Info fetches the server's dataset cardinalities, engine name and
// capability descriptor. Client and server ship in
// one binary, so every row is required: a short or unparsable response
// is an ErrProto, never a guess — a driver that assumed a full engine
// behind a truncated descriptor would issue ops the server refuses.
func (cl *Client) Info() (ServerInfo, error) {
	resp, err := cl.call(request{op: opInfo})
	if err != nil {
		return ServerInfo{}, err
	}
	if len(resp.u64s) < 3 || len(resp.rows) < 2 {
		return ServerInfo{}, fmt.Errorf("%w: short info response (%d counts, %d rows)", ErrProto, len(resp.u64s), len(resp.rows))
	}
	caps, ok := workload.ParseCapabilities(resp.rows[1])
	if !ok {
		return ServerInfo{}, fmt.Errorf("%w: malformed capability descriptor %q", ErrProto, resp.rows[1])
	}
	return ServerInfo{
		Info: workload.Info{
			Customers: int(resp.u64s[0]),
			Products:  int(resp.u64s[1]),
			Orders:    int(resp.u64s[2]),
		},
		Engine: resp.rows[0],
		Caps:   caps,
	}, nil
}

// Nonce fetches a fresh server-issued run nonce.
func (cl *Client) Nonce() (uint64, error) {
	resp, err := cl.call(request{op: opNonce})
	if err != nil {
		return 0, err
	}
	return resp.value, nil
}

// Stats fetches the server's cumulative admission telemetry.
func (cl *Client) Stats() (AdmissionSnapshot, error) {
	resp, err := cl.call(request{op: opStats})
	if err != nil {
		return AdmissionSnapshot{}, err
	}
	if len(resp.u64s) < 5 {
		return AdmissionSnapshot{}, fmt.Errorf("%w: short stats response", ErrProto)
	}
	return AdmissionSnapshot{
		Admitted:       int64(resp.u64s[0]),
		ShedQueueFull:  int64(resp.u64s[1]),
		ShedDeadline:   int64(resp.u64s[2]),
		QueueDepthMax:  int64(resp.u64s[3]),
		QueueWaitP99NS: time.Duration(resp.u64s[4]),
	}, nil
}

// Ping round-trips a liveness probe.
func (cl *Client) Ping() error {
	_, err := cl.call(request{op: opPing})
	return err
}
