package durable

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"udbench/internal/graph"
	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
	"udbench/internal/wal"
	"udbench/internal/xmlstore"
)

func itemsSchema() relational.Schema {
	return relational.MustSchema("id",
		relational.Column{Name: "id", Type: relational.TypeInt},
		relational.Column{Name: "seq", Type: relational.TypeInt},
	)
}

// seedAll writes one record with sequence number i into every model
// inside a single cross-model transaction.
func seedAll(d *DB, i int) error {
	return d.RunTx(func(tx *txn.Tx) error {
		if err := d.KV.Put(tx, fmt.Sprintf("k%04d", i), mmvalue.Int(int64(i))); err != nil {
			return err
		}
		if err := d.Docs.Collection("orders").Insert(tx,
			mmvalue.ObjectOf("_id", fmt.Sprintf("d%04d", i), "seq", i)); err != nil {
			return err
		}
		items, _ := d.Relational.Table("items")
		if err := items.Insert(tx, mmvalue.ObjectOf("id", i, "seq", i)); err != nil {
			return err
		}
		if err := d.Graph.AddVertex(tx, vid(i), "node", mmvalue.ObjectOf("seq", i)); err != nil {
			return err
		}
		doc := xmlstore.NewElement("rec")
		doc.SetAttr("seq", fmt.Sprint(i))
		return d.XML.Put(tx, fmt.Sprintf("x%04d", i), doc)
	})
}

func vid(i int) graph.VID { return graph.VID(fmt.Sprintf("v%04d", i)) }

// readSeq returns the sequence number recovered for record i in the
// named model, or -1 when the record is missing.
func readSeq(d *DB, model string, i int) int64 {
	switch model {
	case "kv":
		if v, ok := d.KV.Get(nil, fmt.Sprintf("k%04d", i)); ok {
			n, _ := v.AsInt()
			return n
		}
	case "doc":
		if v, ok := d.Docs.Collection("orders").Get(nil, fmt.Sprintf("d%04d", i)); ok {
			n, _ := v.MustObject().GetOr("seq", mmvalue.Null).AsInt()
			return n
		}
	case "rel":
		items, ok := d.Relational.Table("items")
		if !ok {
			return -1
		}
		if row, ok := items.Get(nil, i); ok {
			n, _ := row.MustObject().GetOr("seq", mmvalue.Null).AsInt()
			return n
		}
	case "graph":
		if v, ok := d.Graph.GetVertex(nil, vid(i)); ok {
			n, _ := v.Props.MustObject().GetOr("seq", mmvalue.Null).AsInt()
			return n
		}
	case "xml":
		if doc, ok := d.XML.Get(nil, fmt.Sprintf("x%04d", i)); ok {
			var n int64
			if s, ok := doc.Attr("seq"); ok {
				fmt.Sscan(s, &n)
				return n
			}
		}
	}
	return -1
}

var models = []string{"kv", "doc", "rel", "graph", "xml"}

func TestDurableRoundTrip(t *testing.T) {
	fsys := wal.NewMemFS()
	d, err := Open("db", Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Relational.CreateTable("items", itemsSchema()); err != nil {
		t.Fatal(err)
	}
	if err := d.Docs.Collection("orders").CreateIndex("seq"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := seedAll(d, i); err != nil {
			t.Fatal(err)
		}
	}
	// Mutations beyond inserts: overwrite, update, graph edge, props.
	if err := d.RunTx(func(tx *txn.Tx) error {
		if err := d.KV.Put(tx, "k0003", mmvalue.Int(333)); err != nil {
			return err
		}
		if err := d.Docs.Collection("orders").SetPath(tx, "d0004", "seq", mmvalue.Int(444)); err != nil {
			return err
		}
		items, _ := d.Relational.Table("items")
		if err := items.ApplyPut(tx, mmvalue.ObjectOf("id", 5, "seq", 555)); err != nil {
			return err
		}
		if err := d.Graph.AddEdge(tx, "e0", "link", vid(1), vid(2), mmvalue.ObjectOf("w", 1.5)); err != nil {
			return err
		}
		return d.XML.Update(tx, "x0006", func(doc *xmlstore.Node) (*xmlstore.Node, error) {
			doc.SetAttr("seq", "666")
			return doc, nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	wm := d.Manager().Published()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open("db", Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Recovery.Records == 0 || d2.Recovery.WatermarkTS != uint64(wm) {
		t.Fatalf("recovery = %+v, want watermark %d", d2.Recovery, wm)
	}
	for i := 0; i < 20; i++ {
		for _, m := range models {
			want := int64(i)
			switch {
			case m == "kv" && i == 3:
				want = 333
			case m == "doc" && i == 4:
				want = 444
			case m == "rel" && i == 5:
				want = 555
			case m == "xml" && i == 6:
				want = 666
			}
			if got := readSeq(d2, m, i); got != want {
				t.Errorf("%s[%d] = %d, want %d", m, i, got, want)
			}
		}
	}
	if _, ok := d2.Graph.GetEdge(nil, "e0"); !ok {
		t.Error("edge e0 lost")
	}
	if !d2.Docs.Collection("orders").HasIndex("seq") {
		t.Error("doc index lost")
	}
	// New commits stamp after the recovered watermark and are durable.
	if err := seedAll(d2, 99); err != nil {
		t.Fatal(err)
	}
	if got := d2.Manager().Published(); got <= wm {
		t.Fatalf("post-recovery watermark %d <= pre-crash %d", got, wm)
	}
}

func TestSnapshotPlusTailRecovery(t *testing.T) {
	fsys := wal.NewMemFS()
	d, err := Open("db", Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Relational.CreateTable("items", itemsSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := seedAll(d, i); err != nil {
			t.Fatal(err)
		}
	}
	snapTS, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		if err := seedAll(d, i); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate a kill. Group policy means acked == synced.
	d2, err := Open("db", Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Recovery.SnapshotTS != snapTS {
		t.Fatalf("snapshot ts %d, want %d", d2.Recovery.SnapshotTS, snapTS)
	}
	if d2.Recovery.SnapshotOps == 0 {
		t.Fatal("no snapshot ops applied")
	}
	// Only the 5 tail transactions replay from the log.
	if d2.Recovery.Records != 5 {
		t.Fatalf("replayed %d records, want 5 (tail only)", d2.Recovery.Records)
	}
	for i := 0; i < 15; i++ {
		for _, m := range models {
			if got := readSeq(d2, m, i); got != int64(i) {
				t.Errorf("%s[%d] = %d, want %d", m, i, got, i)
			}
		}
	}
}

// TestReplayIdempotent pins the recovery idempotence satellite:
// replaying the same log twice must converge to a byte-identical state
// encoding as replaying it once.
func TestReplayIdempotent(t *testing.T) {
	fsys := wal.NewMemFS()
	d, err := Open("db", Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Relational.CreateTable("items", itemsSchema()); err != nil {
		t.Fatal(err)
	}
	if err := d.Docs.Collection("orders").CreateIndex("seq"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := seedAll(d, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.RunTx(func(tx *txn.Tx) error {
		if err := d.KV.Put(tx, "k0002", mmvalue.Int(222)); err != nil {
			return err
		}
		if err := d.Graph.AddEdge(tx, "e1", "link", vid(0), vid(1), mmvalue.Null); err != nil {
			return err
		}
		return d.Graph.SetVertexProps(tx, vid(7), func(mmvalue.Value) (mmvalue.Value, error) {
			return mmvalue.ObjectOf("seq", 777), nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	encode := func(d *DB) []byte {
		tx := d.Manager().Begin()
		defer tx.Abort()
		return wal.AppendCommit(nil, 0, encodeState(d.DB, tx))
	}

	once, err := Open("db", Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer once.Close()
	onceBytes := encode(once)

	// Replay the same log a second time over the already-recovered
	// state: every op must upsert to the same place.
	once.Manager().SetCommitLog(nil) // do not re-log the re-applied ops
	if _, err := wal.Replay(fsys, "db/"+LogName, func(ts uint64, ops [][]byte) error {
		return applyOps(once.DB, ops)
	}); err != nil {
		t.Fatal(err)
	}
	twiceBytes := encode(once)
	if string(onceBytes) != string(twiceBytes) {
		t.Fatalf("replaying twice diverged: %d vs %d bytes", len(onceBytes), len(twiceBytes))
	}
}

// TestRetiredOpcodesRejected pins that the six retired delete codes
// stay retired: a log record carrying one makes Open fail with an error
// that names the code, and replay does not panic on it.
func TestRetiredOpcodesRejected(t *testing.T) {
	for _, code := range []byte{0x11, 0x21, 0x33, 0x43, 0x44, 0x51} {
		fsys := wal.NewMemFS()
		if err := fsys.MkdirAll("db"); err != nil {
			t.Fatal(err)
		}
		log, err := wal.OpenLog("db/"+LogName, wal.Options{FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(1, [][]byte{wal.NewOp(code).String("id").Build()}); err != nil {
			t.Fatal(err)
		}
		if err := log.Commit(1); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		d, err := Open("db", Options{FS: fsys})
		if err == nil {
			d.Close()
			t.Fatalf("op 0x%02x: Open succeeded", code)
		}
		if want := fmt.Sprintf("0x%02x", code); !strings.Contains(err.Error(), want) {
			t.Errorf("op 0x%02x: Open error %q does not name the code", code, err)
		}
	}
}

// TestSealedLogDegradation pins graceful degradation: after persistent
// fsync failure the log seals, new commits fail with a typed error, and
// reads keep serving.
func TestSealedLogDegradation(t *testing.T) {
	fsys := wal.NewFailFS(wal.NewMemFS())
	d, err := Open("db", Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Relational.CreateTable("items", itemsSchema()); err != nil {
		t.Fatal(err)
	}
	if err := seedAll(d, 0); err != nil {
		t.Fatal(err)
	}
	fsys.FailSyncsFrom(1) // disk stops accepting fsync, permanently
	err = seedAll(d, 1)
	if !errors.Is(err, wal.ErrSealed) {
		t.Fatalf("commit after fsync failure = %v, want ErrSealed", err)
	}
	if !d.Log().Sealed() || !d.DurabilityStats().Sealed {
		t.Fatal("log not sealed")
	}
	// Further commits are refused outright.
	if err := seedAll(d, 2); !errors.Is(err, wal.ErrSealed) {
		t.Fatalf("commit on sealed log = %v, want ErrSealed", err)
	}
	// Reads keep serving the pre-failure state.
	if got := readSeq(d, "kv", 0); got != 0 {
		t.Fatalf("read after seal = %d, want 0", got)
	}
}
