// Package server is UDBench's network front-end: it serves the
// benchmark's operation set (Q1–Q13, T1–T5) over a minimal
// length-prefixed binary protocol, in front of any workload.Backend
// (the unified udbms engine, the polyglot federation, the relational
// comparative leg).
//
// # Wire protocol
//
// Every message travels in one CRC-framed record reusing the
// write-ahead log's framing exactly ([4B payload length LE][4B
// CRC32-Castagnoli][payload], see internal/wal): frames written with
// wal.AppendFrame decode with wal.DecodeFrame, and the stream reader
// here rejects oversized length prefixes *before* allocating, so a
// corrupt or adversarial peer can neither panic the server nor make it
// over-allocate — pinned by FuzzWireDecode. Payloads are wal.OpEncoder
// records: a request carries an op code, a request id and the
// operation arguments; a response echoes the id with a
// status (ok / error / overload) and a uniform result body. Responses
// may return out of order — clients match on the id — so one
// connection can pipeline many in-flight requests.
//
// # Admission control
//
// In front of the engine sits a bounded request queue with
// deadline-aware shedding: a request that arrives with the queue full,
// or whose queue wait exceeds Config.QueueDeadline by the time a
// worker picks it up, is rejected with a typed overload response
// (StatusOverload) instead of being served late. The queue exports telemetry — depth
// high watermark, shed count, queue-wait distribution — which remote
// clients fold into the standard RunSummary JSON as the
// admission{queue_depth_max,shed,queue_wait_p99_ns} block. A worker
// whose engine op panics answers that request with an internal error
// and keeps serving.
//
// # Remote engine
//
// RemoteEngine adapts a pool of client connections back into a
// workload.Engine, so the open-loop driver, the standard mix, and the
// f5 knee sweep run unchanged over the wire — intended latency then
// includes connection and server queueing, which is exactly what the
// coordinated-omission machinery was built to expose. The server also
// issues run nonces (fresh-order-id namespaces) from its own sequence,
// so any number of client processes can drive one server without T2
// insert collisions.
package server
