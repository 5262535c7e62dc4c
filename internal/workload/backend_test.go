package workload

import (
	"reflect"
	"testing"
)

// TestCapabilitiesCodec pins the wire form of the descriptor: what
// Encode writes ParseCapabilities reads back, "everything" (nil) and
// "nothing" (empty) stay distinct, and anything else is rejected
// rather than guessed at.
func TestCapabilitiesCodec(t *testing.T) {
	partial := Capabilities{
		Models:  []string{"relational"},
		Queries: []QueryID{Q1, Q3, Q13},
	}
	none := Capabilities{Models: []string{}, Transactions: true, Queries: []QueryID{}}
	for name, c := range map[string]Capabilities{"full": FullCapabilities(), "partial": partial, "none": none} {
		got, ok := ParseCapabilities(c.Encode())
		if !ok || !reflect.DeepEqual(got, c) {
			t.Errorf("%s: %q parsed to %+v (ok %v), want %+v", name, c.Encode(), got, ok, c)
		}
	}
	if enc := partial.Encode(); enc != "models=relational;txn=false;queries=Q1+Q3+Q13" {
		t.Errorf("partial descriptor encodes as %q", enc)
	}
	full := FullCapabilities().Encode()
	for name, s := range map[string]string{
		"empty":         "",
		"no value":      "models",
		"missing field": "models=kv;txn=true",
		"retired snap":  "models=kv;txn=true;snap=true;queries=*",
		"unknown field": full + ";extra=1",
		"repeated":      full + ";txn=true",
		"bad bool":      "models=kv;txn=maybe;queries=*",
		"bad query":     "models=kv;txn=true;queries=Qx",
	} {
		if c, ok := ParseCapabilities(s); ok {
			t.Errorf("%s: %q parsed to %+v, want a rejection", name, s, c)
		}
	}
}
