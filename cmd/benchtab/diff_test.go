package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFleetRecord writes a symbfuzz-bench-fleet/v1 record with the
// given per-row batch bytes; a negative value leaves the row's
// batch_bytes field out.
func writeFleetRecord(t *testing.T, name string, batchBytes ...int64) string {
	t.Helper()
	rows := make([]map[string]any, len(batchBytes))
	for i, b := range batchBytes {
		rows[i] = map[string]any{"bench": "scmi_mailbox", "batch_calls": 6, "merged_equal": true}
		if b >= 0 {
			rows[i]["batch_bytes"] = b
		}
	}
	data, err := json.Marshal(map[string]any{
		"schema":                "symbfuzz-bench-fleet/v1",
		"rows":                  rows,
		"fleet_vectors_per_sec": 4400.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffFleetRecord pins the -diff gate on fleet records: an
// unchanged record passes, batch_bytes is gated lower-is-better, and a
// metric path missing from either record is an error rather than a
// silently skipped comparison.
func TestDiffFleetRecord(t *testing.T) {
	base := writeFleetRecord(t, "base.json", 6000, 3800)

	var out bytes.Buffer
	failed, err := runDiff(base, base, 0.10, 0.25, &out)
	if err != nil || failed {
		t.Fatalf("unchanged record: failed=%v err=%v\n%s", failed, err, out.String())
	}

	out.Reset()
	worse := writeFleetRecord(t, "worse.json", 6000, 3800*2)
	failed, err = runDiff(base, worse, 0.10, 0.25, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !failed || !strings.Contains(out.String(), "rows.1.batch_bytes") || !strings.Contains(out.String(), "FAIL") {
		t.Errorf("doubled batch_bytes not flagged:\n%s", out.String())
	}

	out.Reset()
	better := writeFleetRecord(t, "better.json", 3000, 1900)
	if failed, err = runDiff(base, better, 0.10, 0.25, &out); err != nil || failed {
		t.Errorf("smaller batch_bytes flagged as a regression: failed=%v err=%v\n%s", failed, err, out.String())
	}

	missing := writeFleetRecord(t, "missing.json", 6000, -1)
	if _, err := runDiff(base, missing, 0.10, 0.25, &bytes.Buffer{}); err == nil {
		t.Error("candidate missing rows.1.batch_bytes was not an error")
	}
	if _, err := runDiff(missing, base, 0.10, 0.25, &bytes.Buffer{}); err == nil {
		t.Error("baseline missing rows.1.batch_bytes was not an error")
	}
	noRows := writeFleetRecord(t, "norows.json")
	if _, err := runDiff(noRows, base, 0.10, 0.25, &bytes.Buffer{}); err == nil {
		t.Error("baseline without any batch_bytes metric was not an error")
	}
}
