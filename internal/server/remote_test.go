package server

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"udbench/internal/wal"
	"udbench/internal/workload"
)

// TestRemoteEngineBasics pins the Engine adaptation: name suffix,
// server-fetched info, and server-issued nonces.
func TestRemoteEngineBasics(t *testing.T) {
	s := startServer(t, Config{Engine: &stubEngine{}})
	re, err := DialEngine(s.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Name() != "stub-remote" || re.ServerName() != "stub" {
		t.Errorf("names = %q/%q, want stub-remote/stub", re.Name(), re.ServerName())
	}
	if re.Info() != testInfo {
		t.Errorf("info = %+v, want %+v", re.Info(), testInfo)
	}
	n1, n2 := re.RunNonce(), re.RunNonce()
	if n1 == 0 || n2 == 0 || n1 == n2 {
		t.Errorf("server nonces = %d, %d; want distinct nonzero", n1, n2)
	}
	if err := re.OrderUpdate(workload.Params{}); err != nil {
		t.Errorf("order update: %v", err)
	}
	if torn, err := re.SnapshotRead(workload.Params{CustomerID: 5}); err != nil || !torn {
		t.Errorf("snapshot read = %v, %v; want torn (odd customer)", torn, err)
	}
}

// TestRemoteRunMix is the acceptance end-to-end: the unmodified
// open-loop driver runs the standard mix against a RemoteEngine at
// roughly twice the server's capacity. The run must complete with a
// nonzero shed count in the admission telemetry block, and intended
// p99 (which includes the arrival-schedule backlog the overload
// creates) must dominate service p99.
func TestRemoteRunMix(t *testing.T) {
	// Capacity ≈ workers/opDelay = 2/2ms = 1000 ops/s; offer 2000.
	e := &stubEngine{opDelay: 2 * time.Millisecond}
	s := startServer(t, Config{Engine: e, Workers: 2, QueueDepth: 8, QueueDeadline: 5 * time.Millisecond})
	re, err := DialEngine(s.Addr().String(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	res := workload.RunMix(re, re.Info(), workload.StandardMix(re), workload.DriverConfig{
		Clients: 8, Theta: 0.5, Seed: 11,
		Mode: workload.ModeOpen, RateOpsPerSec: 2000,
		Arrival: workload.ArrivalPoisson, Duration: 400 * time.Millisecond,
	})
	sum := res.Summary()
	if !strings.HasSuffix(sum.Engine, "-remote") {
		t.Errorf("summary engine = %q, want a -remote label", sum.Engine)
	}
	if res.Admission == nil {
		t.Fatal("remote run has no admission telemetry block")
	}
	if res.Admission.Shed == 0 {
		t.Error("2x-capacity offered load shed nothing — admission control inert")
	}
	if sum.Admission == nil || sum.Admission.Shed != res.Admission.Shed {
		t.Errorf("summary admission block %+v does not mirror result %+v", sum.Admission, res.Admission)
	}
	if sum.IntendedP99NS < sum.P99NS {
		t.Errorf("intended p99 %v < service p99 %v: the wire run lost its queueing delay",
			sum.IntendedP99NS, sum.P99NS)
	}
	if res.Ops == 0 {
		t.Error("no operations completed")
	}
}

// TestRemoteAdmissionDelta pins the run-scoping of the telemetry: a
// second run's shed delta counts only its own sheds, not history.
func TestRemoteAdmissionDelta(t *testing.T) {
	e := &stubEngine{}
	s := startServer(t, Config{Engine: e, Workers: 2, QueueDepth: 64})
	re, err := DialEngine(s.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	cfg := workload.DriverConfig{Clients: 2, OpsPerClient: 20, Seed: 3}
	first := workload.RunMix(re, re.Info(), workload.StandardMix(re), cfg)
	if first.Admission == nil {
		t.Fatal("first run missing admission block")
	}
	second := workload.RunMix(re, re.Info(), workload.StandardMix(re), cfg)
	if second.Admission == nil {
		t.Fatal("second run missing admission block")
	}
	if second.Admission.Shed != 0 {
		t.Errorf("uncontended closed run reports shed = %d, want 0 (delta must be run-scoped)",
			second.Admission.Shed)
	}
}

// stubInfoListener answers every request on every connection with an
// OK response carrying the given info rows — a server whose info
// descriptor is truncated or mangled.
func stubInfoListener(t *testing.T, rows []string) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				var scratch []byte
				for {
					payload, grown, err := readFrame(c, scratch)
					if err != nil {
						return
					}
					scratch = grown
					req, err := decodeRequest(payload)
					if err != nil {
						return
					}
					resp := response{id: req.id, status: StatusOK, u64s: []uint64{10, 5, 20}, rows: rows}
					if _, err := c.Write(wal.AppendFrame(nil, encodeResponse(resp))); err != nil {
						return
					}
				}
			}()
		}
	}()
	return lis.Addr().String()
}

// TestInfoResponseMustBeComplete pins the descriptor contract: the
// client is told what the server fronts or it fails typed — it never
// assumes a fully capable engine behind a short or unparsable info
// response.
func TestInfoResponseMustBeComplete(t *testing.T) {
	full := workload.FullCapabilities().Encode()
	cases := map[string][]string{
		"engine row only":      {"partial"},
		"malformed capability": {"partial", "models=relational;txn=maybe"},
	}
	for name, rows := range cases {
		addr := stubInfoListener(t, rows)
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if si, err := cl.Info(); !errors.Is(err, ErrProto) {
			t.Errorf("%s: Info = %+v, %v; want ErrProto", name, si, err)
		}
		cl.Close()
		if re, err := DialEngine(addr, 1); !errors.Is(err, ErrProto) {
			t.Errorf("%s: DialEngine = %v, %v; want ErrProto", name, re, err)
		}
	}
	// The same stub with both rows dials fine: the failures above are
	// about the rows, not the stub.
	re, err := DialEngine(stubInfoListener(t, []string{"partial", full}), 1)
	if err != nil {
		t.Fatalf("complete info response: %v", err)
	}
	defer re.Close()
	if re.ServerName() != "partial" || re.Capabilities().Partial() {
		t.Errorf("dialed %q, partial %v; want partial, false", re.ServerName(), re.Capabilities().Partial())
	}
}
