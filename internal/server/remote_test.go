package server

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"udbench/internal/udbms"
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

// startSuiteServer loads one registry suite into a unified engine and
// serves it, advertising the suite name in Config.Suite.
func startSuiteServer(t *testing.T, suiteName string) (*Server, *workload.Suite, workload.Info) {
	t.Helper()
	suite, err := workload.ResolveSuite(suiteName)
	if err != nil {
		t.Fatal(err)
	}
	data := suite.Generate(0.05, 7)
	db := udbms.Open()
	if err := data.Load(db.Stores()); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Engine: workload.NewUDBMSEngine(db), Info: data.Info(), Suite: suiteName})
	return s, suite, data.Info()
}

// TestRemoteSuiteOps pins the suite leg of the protocol end to end: the
// server advertises its loaded suite, suite ops round-trip with their
// cardinalities, and the full suite mix drives a RemoteEngine through
// the unchanged driver.
func TestRemoteSuiteOps(t *testing.T) {
	s, suite, info := startSuiteServer(t, "timeseries")
	re, err := DialEngine(s.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Suite() != "timeseries" {
		t.Fatalf("remote suite = %q, want timeseries", re.Suite())
	}
	gen := workload.NewParamGen(info, 3, 0.5)
	p := gen.Next()
	if n, err := re.RunSuiteOp("timeseries", "window", p); err != nil || n <= 0 {
		t.Errorf("remote window op = %d, %v; want rows from the loaded store", n, err)
	}
	res := workload.RunMix(re, info, suite.Mix(re), workload.DriverConfig{
		Clients: 4, OpsPerClient: 40, Theta: 0.7, Seed: 11, Suite: suite.Name,
	})
	if res.Errors != 0 || res.Ops != 160 {
		t.Errorf("remote suite mix: ops=%d errors=%d, want 160/0", res.Ops, res.Errors)
	}
	if sum := res.Summary(); sum.Suite != "timeseries" {
		t.Errorf("remote summary suite = %q, want timeseries", sum.Suite)
	}
}

// TestRemoteSuiteMismatch pins the suite guard: a server refuses ops
// from a suite it did not load, and a backend without registry-suite
// execution refuses them all — both as typed remote errors, never as
// silent misreads of the wrong dataset.
func TestRemoteSuiteMismatch(t *testing.T) {
	s, _, _ := startSuiteServer(t, "timeseries")
	re, err := DialEngine(s.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.RunSuiteOp("tenants", "t_lookup", workload.Params{}); !errors.Is(err, ErrRemote) ||
		!strings.Contains(err.Error(), "timeseries") {
		t.Errorf("mismatched suite err = %v, want ErrRemote naming the served suite", err)
	}

	// A stub engine advertises the default t2 suite and cannot execute
	// registry-suite ops.
	bare := startServer(t, Config{Engine: &stubEngine{}})
	re2, err := DialEngine(bare.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Suite() != workload.DefaultSuite {
		t.Errorf("stub server suite = %q, want the default", re2.Suite())
	}
	if _, err := re2.RunSuiteOp(workload.DefaultSuite, "Q1", workload.Params{}); !errors.Is(err, ErrRemote) {
		t.Errorf("suite op on a non-executor engine err = %v, want ErrRemote", err)
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
// assumes the t2 suite or a fully capable engine behind a short or
// unparsable info response.
func TestInfoResponseMustBeComplete(t *testing.T) {
	full := workload.FullCapabilities().Encode()
	cases := map[string][]string{
		"engine row only":      {"partial"},
		"no capability row":    {"partial", "t2"},
		"malformed capability": {"partial", "t2", "models=relational;txn=maybe"},
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
	// The same stub with all three rows dials fine: the failures above
	// are about the rows, not the stub.
	re, err := DialEngine(stubInfoListener(t, []string{"partial", "tenants", full}), 1)
	if err != nil {
		t.Fatalf("complete info response: %v", err)
	}
	defer re.Close()
	if re.Suite() != "tenants" || re.Capabilities().Partial() {
		t.Errorf("dialed suite %q, partial %v; want tenants, false", re.Suite(), re.Capabilities().Partial())
	}
}
