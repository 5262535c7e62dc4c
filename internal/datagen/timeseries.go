// Timeseries dataset: the append-heavy suite's data shape. A small
// relational catalog of series (id, name, points counter) fronts a
// key-value store of ordered measurement points, so windowed range
// scans and per-series appends exercise the KV scan path and the
// relational row that every ingest transaction must also touch.
package datagen

import (
	"fmt"

	"udbench/internal/mmvalue"
	"udbench/internal/relational"
	"udbench/internal/txn"
)

// Reference timeseries entity counts at scale factor 1.
const (
	BaseSeries = 100
	BasePoints = 6000
	// SeriesZipfTheta skews point placement toward hot series, so
	// appends and scans contend on the same few relational rows.
	SeriesZipfTheta = 0.8
)

// TimeseriesDataset is the materialized timeseries suite dataset.
type TimeseriesDataset struct {
	Config Config
	// Series are relational rows (schema SeriesSchema()): id, name,
	// points (base point count, bumped by every append), base (the
	// immutable generated count appends are measured against).
	Series []mmvalue.Value
	// Points maps kv key -> measurement payload, in PointKeys order.
	Points    map[string]mmvalue.Value
	PointKeys []string
}

// SeriesSchema returns the relational schema of the series catalog.
func SeriesSchema() relational.Schema {
	return relational.MustSchema("id",
		relational.Column{Name: "id", Type: relational.TypeInt},
		relational.Column{Name: "name", Type: relational.TypeString},
		relational.Column{Name: "points", Type: relational.TypeInt},
		relational.Column{Name: "base", Type: relational.TypeInt},
	)
}

// TimeseriesCounts returns the scaled entity counts for a config.
func TimeseriesCounts(cfg Config) (series, points int) {
	sf := cfg.ScaleFactor
	if sf < 0.01 {
		sf = 0.01
	}
	scale := func(base int) int {
		n := int(float64(base) * sf)
		if n < 1 {
			n = 1
		}
		return n
	}
	return scale(BaseSeries), scale(BasePoints)
}

// SeriesPointKey renders the kv key of generated point seq of a series
// (both 1-based). Keys of one series sort by seq, so a window scan is
// one ordered kv range.
func SeriesPointKey(series, seq int) string {
	return fmt.Sprintf("ts/%06d/%08d", series, seq)
}

// SeriesAppendKey renders the kv key of a runtime-appended point. The
// "x-" segment sorts after every generated %08d seq, keeping appends
// out of base windows while staying inside the series prefix — and
// countable on their own sub-prefix (SeriesAppendPrefix) for the
// watermark probe.
func SeriesAppendKey(series int, freshID string) string {
	return fmt.Sprintf("ts/%06d/x-%s", series, freshID)
}

// SeriesPrefix is the kv prefix holding every point of a series.
func SeriesPrefix(series int) string { return fmt.Sprintf("ts/%06d/", series) }

// SeriesAppendPrefix is the kv prefix holding only the runtime appends
// of a series.
func SeriesAppendPrefix(series int) string { return fmt.Sprintf("ts/%06d/x-", series) }

// GenerateTimeseries materializes the timeseries dataset. Generation
// is deterministic in (Seed, ScaleFactor), like Generate.
func GenerateTimeseries(cfg Config) *TimeseriesDataset {
	rng := NewRNG(cfg.Seed*0x9e3779b9 + 0x7153)
	nSeries, nPoints := TimeseriesCounts(cfg)
	ds := &TimeseriesDataset{
		Config: cfg,
		Points: make(map[string]mmvalue.Value, nPoints),
	}
	metricNames := []string{"cpu", "mem", "disk", "net", "rps", "p99", "errs", "temp"}
	// Zipf-place the points first so each series row records its own
	// base count.
	seriesZ := NewZipf(rng, nSeries, SeriesZipfTheta)
	perSeries := make([]int, nSeries+1)
	for i := 0; i < nPoints; i++ {
		sid := seriesZ.Next() + 1
		perSeries[sid]++
		seq := perSeries[sid]
		key := SeriesPointKey(sid, seq)
		ds.Points[key] = mmvalue.ObjectOf(
			"t", seq,
			"v", float64(rng.Intn(100000))/100,
		)
		ds.PointKeys = append(ds.PointKeys, key)
	}
	for i := 1; i <= nSeries; i++ {
		ds.Series = append(ds.Series, mmvalue.ObjectOf(
			"id", i,
			"name", fmt.Sprintf("%s-%03d", Pick(rng, metricNames), i),
			"points", perSeries[i],
			"base", perSeries[i],
		))
	}
	return ds
}

// NumSeries returns the series count.
func (ds *TimeseriesDataset) NumSeries() int { return len(ds.Series) }

// NumPoints returns the generated point count.
func (ds *TimeseriesDataset) NumPoints() int { return len(ds.PointKeys) }

// Load copies the dataset into the target stores, in transactions of
// txn.BulkBatch records.
func (ds *TimeseriesDataset) Load(t Target) error {
	series, err := t.Relational.CreateTable("series", SeriesSchema())
	if err != nil {
		return err
	}
	if err := series.Manager().Bulk(len(ds.Series), func(tx *txn.Tx, i int) error {
		return series.Insert(tx, ds.Series[i])
	}); err != nil {
		return err
	}
	return t.KV.Manager().Bulk(len(ds.PointKeys), func(tx *txn.Tx, i int) error {
		key := ds.PointKeys[i]
		return t.KV.Put(tx, key, ds.Points[key])
	})
}
