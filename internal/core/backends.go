package core

import (
	"fmt"
	"time"

	"udbench/internal/backend/relbe"
	"udbench/internal/datagen"
	"udbench/internal/federation"
	"udbench/internal/udbms"
	"udbench/internal/workload"
)

// NewBackend builds the named system under test with ds loaded: the
// unified engine (udbms), the polyglot federation with hop as its
// simulated per-request latency (federation), or the relational-only
// comparative leg (relational). This is the one list of backends; mix,
// serve and the experiment testbeds all build through it.
func NewBackend(name string, ds *datagen.Dataset, hop time.Duration) (workload.Backend, error) {
	switch name {
	case "udbms":
		db := udbms.Open()
		if err := ds.Load(db.Stores()); err != nil {
			return nil, err
		}
		return workload.NewUDBMSEngine(db), nil
	case "federation":
		f := federation.Open()
		f.HopLatency = hop
		if err := ds.Load(f.Stores()); err != nil {
			return nil, err
		}
		return workload.NewFederationEngine(f), nil
	case "relational":
		be, err := relbe.Open(ds)
		if err != nil {
			return nil, err
		}
		return be, nil
	}
	return nil, fmt.Errorf("unknown backend %q (want udbms, federation or relational)", name)
}
