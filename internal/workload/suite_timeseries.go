package workload

import (
	"udbench/internal/datagen"
	"udbench/internal/mmvalue"
)

// The timeseries suite is the append-heavy ingest shape: a relational
// series catalog over a key-value store of ordered points. Appends
// bump the catalog's per-series counter and insert a point in one
// transaction, so sustained ingest grows the hot rows' version chains
// and drives the epoch-commit watermark; windowed range scans and
// whole-series aggregates read behind it.
func init() {
	RegisterSuite(&Suite{
		Name:        "timeseries",
		Description: "append-heavy KV+relational ingest with windowed range scans (epoch watermark, version-chain growth)",
		Generate: func(sf float64, seed uint64) SuiteData {
			// CustomerID draws a series id (Zipf -> hot series), OrderID's
			// numeric suffix a point sequence.
			ds := datagen.GenerateTimeseries(datagen.Config{ScaleFactor: sf, Seed: seed})
			return dataset{ds, Info{Customers: ds.NumSeries(), Products: ds.NumSeries(), Orders: ds.NumPoints()}}
		},
		Ops: []SuiteOp{
			{Name: "append", Weight: 60, Write: true, Body: tsAppendBody},
			{Name: "window", Weight: 20, Body: tsWindowBody},
			{Name: "aggregate", Weight: 10, Body: tsAggregateBody},
			{Name: "latest", Weight: 10, Body: tsLatestBody},
			// watermark is the consistency probe: the catalog counter
			// must equal base + appended points in any consistent view.
			{Name: "watermark", Weight: 0, Body: tsWatermarkBody},
		},
	})
}

// tsAppendBody ingests one point: bump the series' point counter in
// the catalog row and insert the point under the series' append
// prefix. The two writes commit atomically on the unified engine and
// via 2PC on the federation; the watermark probe measures exactly
// whether readers can see them split.
func tsAppendBody(st datagen.Target, s session, p Params) (int, error) {
	tbl, err := tableOf(st, "series")
	if err != nil {
		return 0, err
	}
	s.Hop()
	err = tbl.Update(s.RelTx(), p.CustomerID, func(row mmvalue.Value) (mmvalue.Value, error) {
		obj := row.MustObject()
		n, _ := obj.GetOr("points", mmvalue.Int(0)).AsFloat()
		obj.Set("points", mmvalue.Int(int64(n)+1))
		return row, nil
	})
	if err != nil {
		return 0, err
	}
	s.Hop()
	if err := st.KV.Put(s.KVTx(), datagen.SeriesAppendKey(p.CustomerID, p.FreshID),
		mmvalue.ObjectOf("v", p.Threshold)); err != nil {
		return 0, err
	}
	return 1, nil
}

// tsWindowBody reads one window of TopN consecutive generated points:
// catalog lookup for the series' base extent, then one ordered kv
// range scan — the suite's hot read path.
func tsWindowBody(st datagen.Target, s session, p Params) (int, error) {
	tbl, err := tableOf(st, "series")
	if err != nil {
		return 0, err
	}
	s.Hop()
	row, ok := tbl.Get(s.RelTx(), p.CustomerID)
	if !ok {
		return 0, nil
	}
	base, _ := row.MustObject().GetOr("base", mmvalue.Int(0)).AsFloat()
	b := int(base)
	if b <= 0 {
		return 0, nil
	}
	window := p.TopN
	if window < 1 {
		window = 1
	}
	lo := datagen.SeqOf(p.OrderID)%b + 1
	count := 0
	s.Hop()
	st.KV.Scan(s.KVTx(), datagen.SeriesPointKey(p.CustomerID, lo),
		datagen.SeriesPointKey(p.CustomerID, lo+window), func(string, mmvalue.Value) bool {
			count++
			return true
		})
	return count, nil
}

// tsAggregateBody scans the series' whole prefix (generated points and
// runtime appends) and counts values above the threshold — the
// full-series analytic read.
func tsAggregateBody(st datagen.Target, s session, p Params) (int, error) {
	above := 0
	s.Hop()
	st.KV.ScanPrefix(s.KVTx(), datagen.SeriesPrefix(p.CustomerID), func(_ string, v mmvalue.Value) bool {
		f, _ := v.MustObject().GetOr("v", mmvalue.Float(0)).AsFloat()
		if f > p.Threshold {
			above++
		}
		return true
	})
	return above, nil
}

// tsLatestBody is the point-read op: catalog row plus one generated
// point fetched by key.
func tsLatestBody(st datagen.Target, s session, p Params) (int, error) {
	tbl, err := tableOf(st, "series")
	if err != nil {
		return 0, err
	}
	s.Hop()
	row, ok := tbl.Get(s.RelTx(), p.CustomerID)
	if !ok {
		return 0, nil
	}
	base, _ := row.MustObject().GetOr("base", mmvalue.Int(0)).AsFloat()
	b := int(base)
	if b <= 0 {
		return 0, nil
	}
	s.Hop()
	if _, ok := st.KV.Get(s.KVTx(), datagen.SeriesPointKey(p.CustomerID, datagen.SeqOf(p.OrderID)%b+1)); ok {
		return 1, nil
	}
	return 0, nil
}

// tsWatermarkBody is the weight-0 consistency probe: in any consistent
// view the catalog counter equals the base extent plus the appended
// points. Returns 1 on a violation (a torn catalog/store view — the
// unified engine's snapshot must never show one), 0 otherwise.
func tsWatermarkBody(st datagen.Target, s session, p Params) (int, error) {
	tbl, err := tableOf(st, "series")
	if err != nil {
		return 0, err
	}
	s.Hop()
	row, ok := tbl.Get(s.RelTx(), p.CustomerID)
	if !ok {
		return 0, nil
	}
	obj := row.MustObject()
	pts, _ := obj.GetOr("points", mmvalue.Int(0)).AsFloat()
	base, _ := obj.GetOr("base", mmvalue.Int(0)).AsFloat()
	appended := 0
	s.Hop()
	st.KV.ScanPrefix(s.KVTx(), datagen.SeriesAppendPrefix(p.CustomerID), func(string, mmvalue.Value) bool {
		appended++
		return true
	})
	if int(pts) != int(base)+appended {
		return 1, nil
	}
	return 0, nil
}
