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
	failed, err := runDiff(base, base, &out)
	if err != nil || failed {
		t.Fatalf("unchanged record: failed=%v err=%v\n%s", failed, err, out.String())
	}

	out.Reset()
	worse := writeFleetRecord(t, "worse.json", 6000, 3800*2)
	failed, err = runDiff(base, worse, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !failed || !strings.Contains(out.String(), "rows.1.batch_bytes") || !strings.Contains(out.String(), "FAIL") {
		t.Errorf("doubled batch_bytes not flagged:\n%s", out.String())
	}

	out.Reset()
	better := writeFleetRecord(t, "better.json", 3000, 1900)
	if failed, err = runDiff(base, better, &out); err != nil || failed {
		t.Errorf("smaller batch_bytes flagged as a regression: failed=%v err=%v\n%s", failed, err, out.String())
	}

	missing := writeFleetRecord(t, "missing.json", 6000, -1)
	if _, err := runDiff(base, missing, &bytes.Buffer{}); err == nil {
		t.Error("candidate missing rows.1.batch_bytes was not an error")
	}
	if _, err := runDiff(missing, base, &bytes.Buffer{}); err == nil {
		t.Error("baseline missing rows.1.batch_bytes was not an error")
	}
	noRows := writeFleetRecord(t, "norows.json")
	if _, err := runDiff(noRows, base, &bytes.Buffer{}); err == nil {
		t.Error("baseline without any batch_bytes metric was not an error")
	}
}

// TestDiffRejectsZeroMetric pins the zero hole shut: a gated metric
// that reads 0 on either side is an error, not a pass — neither a
// baseline that normalizes nothing nor a lower-is-better candidate
// that would otherwise read as a 100% improvement.
func TestDiffRejectsZeroMetric(t *testing.T) {
	base := writeFleetRecord(t, "base.json", 6000, 3800)
	zero := writeFleetRecord(t, "zero.json", 6000, 0)
	if _, err := runDiff(zero, base, &bytes.Buffer{}); err == nil {
		t.Error("baseline reading 0 was not an error")
	}
	if _, err := runDiff(base, zero, &bytes.Buffer{}); err == nil {
		t.Error("lower-is-better candidate reading 0 was not an error")
	}
}

// TestCommittedRecordsSelfDiff checks the committed BENCH_*.json
// records against the -diff registry: every record has a registered
// schema and self-diffs clean, and every registered schema has a
// committed record, so a dead registry entry cannot linger.
func TestCommittedRecordsSelfDiff(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json records found")
	}
	recorded := map[string]bool{}
	for _, p := range paths {
		_, schema, err := readRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		recorded[schema] = true
		var out bytes.Buffer
		if failed, err := runDiff(p, p, &out); err != nil || failed {
			t.Errorf("%s does not self-diff clean: failed=%v err=%v\n%s", p, failed, err, out.String())
		}
	}
	for schema := range diffMetrics {
		if !recorded[schema] {
			t.Errorf("registry schema %q has no committed record", schema)
		}
	}
}
