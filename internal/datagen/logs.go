// Logs dataset: the large-value suite's data shape. A document
// collection of log records (indexed by level and source) carries a
// fixed level distribution — debug 30%, info 40%, warn 20%, error 8%,
// fatal 2% — so level-scoped queries sweep secondary-index selectivity
// from 2% to 40%. Error-class records additionally own an XML payload
// blob under the same id, giving the suite a large-value fetch path
// and a document<->blob presence invariant to probe.
package datagen

import (
	"fmt"
	"strings"

	"udbench/internal/mmvalue"
	"udbench/internal/txn"
	"udbench/internal/xmlstore"
)

// Reference log entity counts at scale factor 1.
const (
	BaseLogSources = 24
	BaseLogs       = 5000
	// LogSourceZipfTheta skews records toward chatty sources.
	LogSourceZipfTheta = 0.7
	// LogMessageBytes sizes the filler payload of every log message —
	// deliberately large relative to the other suites' values, so scan
	// batching and value copying dominate.
	LogMessageBytes = 256
)

// LogLevels lists the log levels from most to least frequent.
var LogLevels = []string{"debug", "info", "warn", "error", "fatal"}

// logLevelCum is the cumulative per-mille distribution over LogLevels:
// debug 300, info 400, warn 200, error 80, fatal 20.
var logLevelCum = []int{300, 700, 900, 980, 1000}

// LogLevelOf maps a uniform 1..5 draw (Params.Rating) to a level.
func LogLevelOf(rating int) string {
	if rating < 1 || rating > len(LogLevels) {
		return LogLevels[0]
	}
	return LogLevels[rating-1]
}

// LogHasBlob reports whether records of a level carry an XML payload
// blob (the error classes do).
func LogHasBlob(level string) bool { return level == "error" || level == "fatal" }

// LogsDataset is the materialized logs suite dataset.
type LogsDataset struct {
	Config Config
	// Records are JSON documents (_id LogID(i)).
	Records []mmvalue.Value
	// Blobs maps log id -> XML payload for error-class records.
	Blobs map[string]*xmlstore.Node
	// BlobIDs lists blob keys in insertion order.
	BlobIDs []string
}

// LogCounts returns the scaled entity counts for a config.
func LogCounts(cfg Config) (sources, logs int) {
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
	return scale(BaseLogSources), scale(BaseLogs)
}

// LogID renders the document id of generated log record i (1-based).
func LogID(i int) string { return fmt.Sprintf("l%08d", i) }

// LogSourceID renders the source name of source number i (1-based).
func LogSourceID(i int) string { return fmt.Sprintf("s%03d", i) }

// LogBlob builds the XML payload blob of an error-class record.
func LogBlob(id, level, source, msg string) *xmlstore.Node {
	return xmlstore.NewElement("payload",
		xmlstore.Attr{Name: "id", Value: id},
		xmlstore.Attr{Name: "level", Value: level},
		xmlstore.Attr{Name: "source", Value: source},
	).Append(
		xmlstore.NewElement("stack").Append(xmlstore.NewText(msg)),
	)
}

// GenerateLogs materializes the logs dataset deterministically.
func GenerateLogs(cfg Config) *LogsDataset {
	rng := NewRNG(cfg.Seed*0x9e3779b9 + 0x109f)
	nSrc, nLogs := LogCounts(cfg)
	ds := &LogsDataset{
		Config: cfg,
		Blobs:  make(map[string]*xmlstore.Node),
	}
	verbs := []string{"handled", "rejected", "retried", "timed out on", "queued", "flushed"}
	srcZ := NewZipf(rng, nSrc, LogSourceZipfTheta)
	for i := 1; i <= nLogs; i++ {
		id := LogID(i)
		level := LogLevels[len(logLevelCum)-1]
		draw := rng.Intn(1000)
		for li, cum := range logLevelCum {
			if draw < cum {
				level = LogLevels[li]
				break
			}
		}
		source := LogSourceID(srcZ.Next() + 1)
		msg := fmt.Sprintf("%s %s request %d: %s", source, Pick(rng, verbs), i,
			strings.Repeat("x", LogMessageBytes))
		ds.Records = append(ds.Records, mmvalue.ObjectOf(
			"_id", id,
			"level", level,
			"source", source,
			"seq", i,
			"msg", msg,
		))
		if LogHasBlob(level) {
			ds.Blobs[id] = LogBlob(id, level, source, msg)
			ds.BlobIDs = append(ds.BlobIDs, id)
		}
	}
	return ds
}

// NumSources returns the source count the generator drew from.
func (ds *LogsDataset) NumSources() int {
	n, _ := LogCounts(ds.Config)
	return n
}

// NumRecords returns the generated record count.
func (ds *LogsDataset) NumRecords() int { return len(ds.Records) }

// Load copies the dataset into the target stores, in transactions of
// txn.BulkBatch records, and creates the level and source secondary
// indexes the selectivity sweeps probe.
func (ds *LogsDataset) Load(t Target) error {
	logs := t.Docs.Collection("logs")
	if err := logs.Manager().Bulk(len(ds.Records), func(tx *txn.Tx, i int) error {
		return logs.Insert(tx, ds.Records[i])
	}); err != nil {
		return err
	}
	if err := logs.CreateIndex("level"); err != nil {
		return err
	}
	if err := logs.CreateIndex("source"); err != nil {
		return err
	}
	return t.XML.Manager().Bulk(len(ds.BlobIDs), func(tx *txn.Tx, i int) error {
		id := ds.BlobIDs[i]
		return t.XML.Put(tx, id, ds.Blobs[id])
	})
}
