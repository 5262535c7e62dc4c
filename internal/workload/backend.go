package workload

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ErrUnsupported is the typed "this backend cannot run that" error.
// Backends return it (wrapped with context) from RunQuery for queries
// outside their capability descriptor, *before* touching any data; the
// server returns it for a transaction sent to a backend without them,
// and maps it onto the wire's unsupported error class so remote
// callers see the same sentinel. Callers degrade
// gracefully with errors.Is(err, ErrUnsupported) instead of parsing
// messages.
var ErrUnsupported = errors.New("workload: operation unsupported by backend")

// Backend is the minimal contract a system under test must satisfy to
// sit behind the harness: identify itself, describe what it can do, and
// run read queries. Everything else — the native T1–T5 transaction
// set, lock/durability/admission telemetry, server-issued run nonces —
// is an optional capability discovered through the single
// Capabilities() descriptor rather than scattered type assertions.
type Backend interface {
	// Name identifies the backend in reports ("udbms", "federation",
	// "relational", ...).
	Name() string
	// Capabilities describes what the backend supports. The driver,
	// sweeps, and mix builders consult it once per run; it must be
	// cheap and stable for the backend's lifetime.
	Capabilities() Capabilities
	// RunQuery executes a read query and returns its result
	// cardinality. Queries outside Capabilities().Queries return
	// ErrUnsupported (wrapped) without touching data.
	RunQuery(q QueryID, p Params) (int, error)
}

// TxnEngine is the native T2 transaction set — a capability, not part
// of the core Backend contract. The two in-process engines and the
// remote engine implement it; external backends may not. Callers gate
// on Capabilities().Transactions before asserting.
type TxnEngine interface {
	// OrderUpdate is transaction T1 — the paper's example: one order
	// update touching JSON Orders/Product, key-value Feedback and XML
	// Invoice atomically. Deadlock victims are retried internally.
	OrderUpdate(p Params) error
	// OrderUpdateOnce is T1 without retry: a single attempt that
	// surfaces deadlock/2PC aborts to the caller.
	OrderUpdateOnce(p Params) error
	// StockTransferOnce is transaction T5: move one unit of stock from
	// ProductID to ProductID2, locking the two product documents in
	// parameter order. Two concurrent transfers over a hot product
	// pair in opposite orders deadlock, which is what the contention
	// experiment (F3) sweeps. Single attempt, no retry.
	StockTransferOnce(p Params) error
	// NewOrder is transaction T2: insert an order document, its XML
	// invoice and a purchased graph edge.
	NewOrder(p Params) error
	// WriteFeedback is transaction T3: put key-value feedback and mark
	// the order reviewed in the document store.
	WriteFeedback(p Params) error
	// SnapshotRead is transaction T4: read the same logical entity
	// from three models and report whether the view was torn
	// (total mismatch between order document and XML invoice).
	SnapshotRead(p Params) (torn bool, err error)
}

// AllModels lists the five data models a fully multi-model backend
// serves.
var AllModels = []string{"relational", "document", "graph", "kv", "xml"}

// Capabilities describes what a backend supports. The zero value means
// "nothing"; nil Queries means every query, so the fully capable
// native engines need no enumeration. The provider fields replace the
// driver's old ad-hoc type asserts: a backend that exports lock-table,
// durability, admission or run-nonce telemetry sets the corresponding
// field (usually to itself).
type Capabilities struct {
	// Models lists the data models the backend serves (subset of
	// AllModels).
	Models []string
	// Transactions reports whether the backend implements the native
	// TxnEngine transaction set (T1–T5).
	Transactions bool
	// Queries lists the supported read queries; nil means all of
	// AllQueries.
	Queries []QueryID

	// LockStats, when non-nil, exposes the backend's lock-table
	// telemetry; RunMix snapshots it around the run and reports the
	// delta.
	LockStats LockStatsProvider
	// Durability, when non-nil, exposes write-ahead-log telemetry. A
	// nil *wal.Stats return still means "no log attached this run".
	Durability DurabilityProvider
	// Admission, when non-nil, exposes server-side admission-control
	// telemetry (remote backends sitting behind a bounded queue).
	Admission AdmissionProvider
	// Nonce, when non-nil, supplies server-issued run nonces so
	// FreshIDs stay unique across processes sharing one store.
	Nonce NonceProvider
}

// SupportsQuery reports whether q is inside the descriptor.
func (c Capabilities) SupportsQuery(q QueryID) bool {
	return c.Queries == nil || slices.Contains(c.Queries, q)
}

// Partial reports whether the descriptor restricts anything a fully
// capable native engine would support. Reports attach the capability
// block only for partial backends, so the two native engines' JSON
// trajectories stay byte-identical.
func (c Capabilities) Partial() bool {
	return !c.Transactions || c.Queries != nil
}

// Report converts the descriptor to its frozen JSON form, or nil for a
// fully capable backend (the block is omitted from native-engine
// reports).
func (c Capabilities) Report() *BackendCaps {
	if !c.Partial() {
		return nil
	}
	b := &BackendCaps{
		Models:       append([]string(nil), c.Models...),
		Transactions: c.Transactions,
	}
	qs := c.Queries
	if qs == nil {
		qs = AllQueries
	}
	for _, q := range qs {
		b.Queries = append(b.Queries, q.String())
	}
	return b
}

// Encode serializes the static half of the descriptor for the wire
// (the server advertises it in its info response). Providers are
// per-process and not encoded. Lists join with "+"; "*" is the nil list
// ("every query").
func (c Capabilities) Encode() string {
	queries := "*"
	if c.Queries != nil {
		names := make([]string, len(c.Queries))
		for i, q := range c.Queries {
			names[i] = q.String()
		}
		queries = strings.Join(names, "+")
	}
	return fmt.Sprintf("models=%s;txn=%t;queries=%s",
		strings.Join(c.Models, "+"), c.Transactions, queries)
}

// ParseCapabilities is Encode's inverse; ok is false on malformed
// input, which callers must treat as an error (a guessed descriptor
// makes the driver issue ops the backend refuses).
func ParseCapabilities(s string) (Capabilities, bool) {
	var c Capabilities
	seen := map[string]bool{}
	for _, field := range strings.Split(s, ";") {
		key, val, found := strings.Cut(field, "=")
		if !found || seen[key] {
			return Capabilities{}, false
		}
		seen[key] = true
		var err error
		switch key {
		case "models":
			c.Models = splitList(val)
		case "txn":
			c.Transactions, err = strconv.ParseBool(val)
		case "queries":
			if names := splitList(val); names != nil {
				c.Queries = make([]QueryID, len(names))
				for i, name := range names {
					var n int
					if n, err = strconv.Atoi(strings.TrimPrefix(name, "Q")); err != nil {
						break
					}
					c.Queries[i] = QueryID(n)
				}
			}
		default:
			return Capabilities{}, false
		}
		if err != nil {
			return Capabilities{}, false
		}
	}
	return c, len(seen) == 3
}

// splitList decodes one "+"-joined list: "*" is nil (everything), "" is
// empty (nothing).
func splitList(val string) []string {
	switch val {
	case "*":
		return nil
	case "":
		return []string{}
	}
	return strings.Split(val, "+")
}

// FullCapabilities is the descriptor of a natively complete engine:
// all five models, the whole transaction set, every query.
func FullCapabilities() Capabilities {
	return Capabilities{Models: AllModels, Transactions: true}
}
