package workload

import (
	"strings"

	"udbench/internal/datagen"
	"udbench/internal/document"
	"udbench/internal/mmvalue"
)

// The logs suite is the large-value shape: a document collection of
// log records (256-byte messages, level and source secondary indexes)
// with XML payload blobs for the error classes. Level-scoped queries
// sweep index selectivity from 2% (fatal) to 40% (info), stressing the
// vectorized executor's scan batching; blob fetches join the document
// index into the XML store.
func init() {
	RegisterSuite(&Suite{
		Name:        "logs",
		Description: "large-value log records with secondary-index selectivity sweeps over document+XML stores (vectorized scans)",
		Generate: func(sf float64, seed uint64) SuiteData {
			// CustomerID draws a source (Zipf -> chatty sources), Rating a
			// level (uniform over the five), OrderID's numeric suffix a
			// record sequence.
			ds := datagen.GenerateLogs(datagen.Config{ScaleFactor: sf, Seed: seed})
			return dataset{ds, Info{Customers: ds.NumSources(), Products: len(datagen.LogLevels), Orders: ds.NumRecords()}}
		},
		Ops: []SuiteOp{
			{Name: "ingest", Weight: 30, Write: true, Body: lgIngestBody},
			{Name: "by_level", Weight: 30, Body: lgByLevelBody},
			{Name: "by_source", Weight: 25, Body: lgBySourceBody},
			{Name: "blob_fetch", Weight: 15, Body: lgBlobFetchBody},
			// blob_sync is the consistency probe: a record carries an
			// XML blob iff its level is an error class.
			{Name: "blob_sync", Weight: 0, Body: lgBlobSyncBody},
		},
	})
}

// lgIngestBody appends one log record — and, for error-class levels,
// its XML payload blob under the same id, atomically, which is exactly
// the invariant the blob_sync probe checks.
func lgIngestBody(st datagen.Target, s session, p Params) (int, error) {
	id := "lg-" + p.FreshID
	level := datagen.LogLevelOf(p.Rating)
	source := datagen.LogSourceID(p.CustomerID)
	msg := source + " runtime " + strings.Repeat("x", datagen.LogMessageBytes)
	s.Hop()
	if err := st.Docs.Collection("logs").Insert(s.DocTx(), mmvalue.ObjectOf(
		"_id", id,
		"level", level,
		"source", source,
		"seq", 0,
		"msg", msg,
	)); err != nil {
		return 0, err
	}
	if !datagen.LogHasBlob(level) {
		return 1, nil
	}
	s.Hop()
	if err := st.XML.Put(s.XMLTx(), id, datagen.LogBlob(id, level, source, msg)); err != nil {
		return 0, err
	}
	return 1, nil
}

// lgByLevelBody is the selectivity sweep: a level-scoped count whose
// hit rate ranges from 2% of the collection (fatal) to 40% (info),
// depending on the uniformly drawn level.
func lgByLevelBody(st datagen.Target, s session, p Params) (int, error) {
	s.Hop()
	rows := st.Docs.Collection("logs").Find(s.DocTx(),
		document.Eq("level", datagen.LogLevelOf(p.Rating)),
		&document.FindOptions{Projection: []string{"_id"}})
	return len(rows), nil
}

// lgBySourceBody counts one source's records off the source index.
func lgBySourceBody(st datagen.Target, s session, p Params) (int, error) {
	s.Hop()
	rows := st.Docs.Collection("logs").Find(s.DocTx(),
		document.Eq("source", datagen.LogSourceID(p.CustomerID)),
		&document.FindOptions{Projection: []string{"_id"}})
	return len(rows), nil
}

// lgBlobFetchBody joins the document index into the XML store: find
// one source's error records, fetch up to TopN of their payload blobs.
func lgBlobFetchBody(st datagen.Target, s session, p Params) (int, error) {
	s.Hop()
	rows := st.Docs.Collection("logs").Find(s.DocTx(),
		document.All(document.Eq("source", datagen.LogSourceID(p.CustomerID)),
			document.Eq("level", "error")),
		&document.FindOptions{Projection: []string{"_id"}})
	fetched := 0
	for _, r := range rows {
		if fetched >= p.TopN {
			break
		}
		id, _ := r.MustObject().Get("_id")
		s.Hop()
		if _, ok := st.XML.Get(s.XMLTx(), id.MustString()); ok {
			fetched++
		}
	}
	return fetched, nil
}

// lgBlobSyncBody is the weight-0 consistency probe: one record's
// document and blob presence must agree — an error-class record has a
// blob, any other level has none. Returns 1 on a violation.
func lgBlobSyncBody(st datagen.Target, s session, p Params) (int, error) {
	id := datagen.LogID(datagen.SeqOf(p.OrderID))
	s.Hop()
	doc, ok := st.Docs.Collection("logs").Get(s.DocTx(), id)
	if !ok {
		return 0, nil
	}
	level, _ := doc.MustObject().GetOr("level", mmvalue.Null).AsString()
	s.Hop()
	_, hasBlob := st.XML.Get(s.XMLTx(), id)
	if datagen.LogHasBlob(level) != hasBlob {
		return 1, nil
	}
	return 0, nil
}
