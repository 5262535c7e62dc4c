package core

import (
	"io"
	"time"

	"udbench/internal/datagen"
	"udbench/internal/workload"

	// Comparative backends register themselves with the workload
	// backend registry; this is the one place the harness links them
	// in, so `udbench mix -engine relational` and the f5 comparative legs
	// work out of one import.
	_ "udbench/internal/backend/relbe"
)

// comparativeLegs builds a sweep leg for every registered backend
// beyond the two baseline engines (which the callers provision
// themselves so transactional experiments keep their direct handles).
// Backends whose capability subset leaves the standard mix empty are
// skipped rather than erroring: a comparative run reports what each
// system can express.
func comparativeLegs(ds *datagen.Dataset, hop time.Duration) ([]sweepEngine, func(), error) {
	var legs []sweepEngine
	closeAll := func() {
		for _, leg := range legs {
			closeBackend(leg.e)
		}
	}
	for _, name := range workload.BackendNames() {
		if name == "udbms" || name == "federation" {
			continue
		}
		be, err := workload.NewBackend(name, ds, workload.BackendOptions{HopLatency: hop})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		if len(workload.StandardMix(be)) == 0 {
			closeBackend(be)
			continue
		}
		legs = append(legs, sweepEngine{be.Name(), be})
	}
	return legs, closeAll, nil
}

// closeBackend releases a backend that holds resources (most do not).
func closeBackend(be workload.Backend) {
	if c, ok := be.(io.Closer); ok {
		c.Close()
	}
}
