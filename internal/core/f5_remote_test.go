package core

import (
	"strings"
	"testing"

	"udbench/internal/server"
)

// startQuickServer serves a quick-config unified engine on a loopback
// listener and returns its address.
func startQuickServer(t *testing.T, cfg Config) string {
	t.Helper()
	tb, err := newTestbed(cfg.SF, cfg.Seed, cfg.HopLatency)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.Listen("127.0.0.1:0", server.Config{
		Engine: tb.uni, Info: tb.info, Workers: 4, QueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s.Addr().String()
}

// TestF5SweepRemote pins the remote leg of the knee sweep: with
// cfg.Remote set, the same ladder runs over the wire and its rows land
// beside the in-process engines under a "-remote" label.
func TestF5SweepRemote(t *testing.T) {
	cfg := QuickConfig()
	cfg.Remote = startQuickServer(t, cfg)
	rows, err := f5Sweep(cfg, shapeLadder)
	if err != nil {
		t.Fatal(err)
	}
	labels := sweepLabels(rows)
	if len(labels) != 4 {
		t.Fatalf("sweep labels = %v, want udbms + federation + relational + one remote", labels)
	}
	if labels[2] != "relational" {
		t.Fatalf("third sweep label = %q, want the relational comparative leg", labels[2])
	}
	remote := labels[3]
	if !strings.HasSuffix(remote, "-remote") {
		t.Fatalf("third sweep label = %q, want a -remote engine", remote)
	}
	var remoteRows int
	for _, r := range rows {
		if r.Engine != remote {
			continue
		}
		remoteRows++
		if r.Achieved <= 0 {
			t.Errorf("remote @ %.0f ops/s achieved nothing", r.Offered)
		}
		if r.IntP99 < r.SvcP99 {
			t.Errorf("remote @ %.0f: intended p99 %v below service p99 %v — queueing delay lost over the wire",
				r.Offered, r.IntP99, r.SvcP99)
		}
	}
	if remoteRows == 0 {
		t.Fatal("no remote rows in the sweep")
	}
	// The knee digest must cover the remote label too.
	knee := f5Tables(cfg, shapeLadder, rows)[1]
	found := false
	for _, row := range knee.Rows() {
		if len(row) > 0 && row[0] == remote {
			found = true
		}
	}
	if !found {
		t.Errorf("knee digest lacks the %s row: %v", remote, knee.Rows())
	}
}

// TestF5SweepRemoteMismatch pins the dataset guard: a server fronting
// different cardinalities is rejected, not silently compared.
func TestF5SweepRemoteMismatch(t *testing.T) {
	cfg := QuickConfig()
	serveCfg := cfg
	serveCfg.SF = cfg.SF * 2
	cfg.Remote = startQuickServer(t, serveCfg)
	if _, err := f5Sweep(cfg, shapeLadder); err == nil || !strings.Contains(err.Error(), "remote dataset") {
		t.Fatalf("mismatched dataset err = %v, want the remote dataset guard", err)
	}
}
