package dist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// journalSpec is the campaign record the journal tests write.
func journalSpec() CampaignSpec {
	return CampaignSpec{
		Bench: "scmi_mailbox", Interval: 50, Threshold: 2, MaxVectors: 3000,
		Seed: 3, Workers: 2, UseSnapshots: true, ContinueAfterCoverage: true,
	}
}

// TestJournalCompactionBound pins compaction's size contract: a
// journal bloated far past its live state by duplicate appends of a
// rank's report compacts down to the campaign record plus the last
// report per rank, and the compacted file replays to exactly that
// state — resume cost is O(live state), not O(append history).
func TestJournalCompactionBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	jr, err := openJournal(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	spec := journalSpec()
	if err := jr.append(journalRecord{Kind: "campaign", CampaignID: "c1", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	cw := CovWire{Nodes: [][]int{{0, 1}}, Edges: [][]int{{2}}}
	rec := journalRecord{Kind: "report", Rank: 0, Report: &core.Report{Vectors: 1500, FinalPoints: 9}, Coverage: &cw}
	for i := 0; i < 40; i++ {
		if err := jr.append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1; lines > 8 {
		t.Fatalf("compaction left %d journal lines; want O(live state)", lines)
	}
	st, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec == nil || len(st.Reports) != 1 || st.Reports[0] == nil {
		t.Fatalf("compacted journal lost live state: %+v", st)
	}
	if st.Reports[0].Report.Vectors != 1500 {
		t.Fatalf("rank 0 record corrupted by compaction: %+v", st.Reports[0].Report)
	}
}

// TestJournalReplayTolerance pins the torn-line contract: a journal
// whose final line was cut mid-write replays cleanly, keeping every
// complete record and dropping the torn one.
func TestJournalReplayTolerance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	jr, err := openJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := journalSpec()
	if err := jr.append(journalRecord{Kind: "campaign", CampaignID: "c1", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	rep := &core.Report{Vectors: 100, FinalPoints: 5}
	cw := CovWire{Nodes: [][]int{{0, 1}}, Edges: [][]int{{2}}}
	if err := jr.append(journalRecord{Kind: "report", Rank: 0, Report: rep, Coverage: &cw}); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append half a record.
	f, err := openJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.f.WriteString(`{"kind":"report","rank":1,"repo`); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	st, err := replayJournal(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if st.CampaignID != "c1" || st.Spec == nil {
		t.Fatalf("campaign record lost: %+v", st)
	}
	if len(st.Reports) != 1 || st.Reports[0] == nil {
		t.Fatalf("want exactly the complete rank-0 record, got %+v", st.Reports)
	}
	if st.Reports[0].Report.Vectors != 100 {
		t.Fatalf("rank-0 report corrupted: %+v", st.Reports[0].Report)
	}
	if _, ok := st.Reports[1]; ok {
		t.Fatal("torn rank-1 record must be dropped")
	}
}
