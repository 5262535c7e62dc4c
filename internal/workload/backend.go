package workload

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrUnsupported is the typed "this backend cannot run that" error.
// Backends return it (wrapped with context) from RunQuery/RunSuiteOp
// for operations outside their capability descriptor, *before* touching
// any data, and the server maps it onto the wire's unsupported error
// class so remote callers see the same sentinel. Callers degrade
// gracefully with errors.Is(err, ErrUnsupported) instead of parsing
// messages.
var ErrUnsupported = errors.New("workload: operation unsupported by backend")

// Backend is the minimal contract a system under test must satisfy to
// sit behind the harness: identify itself, describe what it can do, and
// run read queries plus registry-suite ops. Everything else — the
// native T1–T5 transaction set, lock/durability/admission telemetry,
// server-issued run nonces — is an optional capability discovered
// through the single Capabilities() descriptor rather than scattered
// type assertions.
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
	// RunSuiteOp executes one registered suite op. Suites outside
	// Capabilities().Suites return ErrUnsupported (wrapped) without
	// touching data.
	RunSuiteOp(suite, op string, p Params) (int, error)
}

// TxnEngine is the native T2 transaction set — a capability, not part
// of the core Backend contract. The two in-process engines and the
// remote engine implement it; external backends may not. Callers gate
// on Capabilities().Transactions / .SnapshotReads before asserting.
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
// "nothing"; nil Queries/Suites mean "everything registered" so the
// fully capable native engines need no enumeration. The provider
// fields replace the driver's old ad-hoc type asserts: a backend that
// exports lock-table, durability, admission, suite-op, or run-nonce
// telemetry sets the corresponding field (usually to itself).
type Capabilities struct {
	// Models lists the data models the backend serves (subset of
	// AllModels).
	Models []string
	// Transactions reports whether the backend implements the native
	// TxnEngine transaction set (T1–T3, T5).
	Transactions bool
	// SnapshotReads reports whether the backend's T4 snapshot read is
	// available (requires Transactions).
	SnapshotReads bool
	// Queries lists the supported read queries; nil means all of
	// AllQueries.
	Queries []QueryID
	// Suites lists the registry suites the backend can execute through
	// RunSuiteOp (plus, for t2, its native mix subset); nil means every
	// registered suite.
	Suites []string

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
	// SuiteStats, when non-nil, exposes suite-op execution counters.
	SuiteStats SuiteStatsProvider
	// Nonce, when non-nil, supplies server-issued run nonces so
	// FreshIDs stay unique across processes sharing one store.
	Nonce NonceProvider
}

// SupportsQuery reports whether q is inside the descriptor.
func (c Capabilities) SupportsQuery(q QueryID) bool {
	return c.Queries == nil || slices.Contains(c.Queries, q)
}

// SupportsSuite reports whether the named suite is inside the
// descriptor.
func (c Capabilities) SupportsSuite(name string) bool {
	return c.Suites == nil || slices.Contains(c.Suites, name)
}

// Partial reports whether the descriptor restricts anything a fully
// capable native engine would support. Reports attach the capability
// block only for partial backends, so the two native engines' JSON
// trajectories stay byte-identical.
func (c Capabilities) Partial() bool {
	return !c.Transactions || !c.SnapshotReads || c.Queries != nil || c.Suites != nil
}

// Report converts the descriptor to its frozen JSON form, or nil for a
// fully capable backend (the block is omitted from native-engine
// reports).
func (c Capabilities) Report() *BackendCaps {
	if !c.Partial() {
		return nil
	}
	b := &BackendCaps{
		Models:        append([]string(nil), c.Models...),
		Transactions:  c.Transactions,
		SnapshotReads: c.SnapshotReads,
	}
	qs := c.Queries
	if qs == nil {
		qs = AllQueries
	}
	for _, q := range qs {
		b.Queries = append(b.Queries, q.String())
	}
	b.Suites = append([]string(nil), c.Suites...)
	if b.Suites == nil {
		b.Suites = SuiteNames()
	}
	return b
}

// Encode serializes the static half of the descriptor for the wire
// (the server advertises it next to the suite label). Providers are
// per-process and not encoded. Lists join with "+"; "*" is the nil list
// ("everything registered").
func (c Capabilities) Encode() string {
	queries, suites := "*", "*"
	if c.Queries != nil {
		names := make([]string, len(c.Queries))
		for i, q := range c.Queries {
			names[i] = q.String()
		}
		queries = strings.Join(names, "+")
	}
	if c.Suites != nil {
		suites = strings.Join(c.Suites, "+")
	}
	return fmt.Sprintf("models=%s;txn=%t;snap=%t;queries=%s;suites=%s",
		strings.Join(c.Models, "+"), c.Transactions, c.SnapshotReads, queries, suites)
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
		case "snap":
			c.SnapshotReads, err = strconv.ParseBool(val)
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
		case "suites":
			c.Suites = splitList(val)
		default:
			return Capabilities{}, false
		}
		if err != nil {
			return Capabilities{}, false
		}
	}
	return c, len(seen) == 5
}

// splitList decodes one "+"-joined list: "*" is nil (everything
// registered), "" is empty (nothing).
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
// all five models, the whole transaction set, every query and suite.
func FullCapabilities() Capabilities {
	return Capabilities{Models: AllModels, Transactions: true, SnapshotReads: true}
}

// BackendOptions carries construction-time knobs a BackendSpec may
// honor.
type BackendOptions struct {
	// HopLatency is the federation's simulated per-request network
	// delay; other backends ignore it.
	HopLatency time.Duration
}

// BackendSpec is one registered backend: a name, a one-line summary,
// and a constructor that loads a suite dataset into a fresh instance.
type BackendSpec struct {
	// Name is the registry key ("udbms", "federation", "relational").
	Name string
	// Description is the one-line summary shown in listings.
	Description string
	// New builds a backend instance with data loaded. Instances that
	// also implement io.Closer are closed by callers that own them.
	New func(data SuiteData, opt BackendOptions) (Backend, error)
}

var backends = registry[*BackendSpec]{kind: "backend"}

// RegisterBackend adds a backend to the registry. Duplicate or
// anonymous registrations panic: they are programming errors in an
// init path.
func RegisterBackend(s *BackendSpec) { backends.add(s.Name, s) }

// BackendNames lists the registered backend names sorted.
func BackendNames() []string { return backends.names() }

// DefaultBackend is the backend an empty -engine flag resolves to.
const DefaultBackend = "udbms"

// ResolveBackend maps an -engine flag value to its spec: "" means the
// default, and an unknown name errors listing what is registered —
// the same convention as ResolveSuite.
func ResolveBackend(name string) (*BackendSpec, error) { return backends.resolve(name, DefaultBackend) }

// NewBackend resolves name in the registry and builds an instance with
// data loaded — the one construction path for native and external
// backends alike.
func NewBackend(name string, data SuiteData, opt BackendOptions) (Backend, error) {
	spec, err := ResolveBackend(name)
	if err != nil {
		return nil, err
	}
	be, err := spec.New(data, opt)
	if err != nil {
		return nil, fmt.Errorf("workload: build %s backend: %w", spec.Name, err)
	}
	return be, nil
}

// registry is a named set behind a lock; the suites and the backends
// each keep one, so both resolve names and report unknown ones alike.
type registry[T any] struct {
	kind  string // "suite" or "backend", for messages
	mu    sync.RWMutex
	items map[string]T
}

func (r *registry[T]) add(name string, v T) {
	if name == "" {
		panic("workload: registering a " + r.kind + " with an empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.items[name]; dup {
		panic("workload: duplicate " + r.kind + " " + name)
	}
	if r.items == nil {
		r.items = map[string]T{}
	}
	r.items[name] = v
}

func (r *registry[T]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Sorted(maps.Keys(r.items))
}

func (r *registry[T]) get(name string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.items[name]
	return v, ok
}

// resolve maps a flag value to its entry: "" means def, and an unknown
// name errors listing what is registered.
func (r *registry[T]) resolve(name, def string) (T, error) {
	if name == "" {
		name = def
	}
	v, ok := r.get(name)
	if !ok {
		return v, fmt.Errorf("workload: unknown %s %q (registered: %v)", r.kind, name, r.names())
	}
	return v, nil
}
