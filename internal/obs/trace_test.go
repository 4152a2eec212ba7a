package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestJSONLTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	tr.Emit(&Event{TNS: 0, Type: EvCampaignStart})
	tr.Emit(&Event{TNS: 20, Type: EvSpan, Vectors: 50, Points: 3, DurNS: 20, Count: 50,
		Span: "w0.i0", Parent: "w0", Kind: SpanInterval})
	tr.Emit(&Event{TNS: 25, Type: EvCheckpoint, Vectors: 50, Points: 3, Count: 256})
	tr.Emit(&Event{TNS: 30, Type: EvSpan, Vectors: 50, Points: 3,
		Graph: 1, Outcome: "sat", Conflicts: 2, Decisions: 9, Clauses: 40, Vars: 12,
		BlastNS: 7, SolveNS: 3, DurNS: 10, Span: "w0.i0.s0", Parent: "w0.i0", Kind: SpanSolve})
	tr.Emit(&Event{TNS: 40, Type: EvBugFound, Vectors: 60, Points: 4, Property: "no_leak"})
	tr.Emit(&Event{TNS: 50, Type: EvCampaignEnd, Vectors: 60, Points: 4})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := ValidateTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 6 || sum.Bugs != 1 {
		t.Errorf("events/bugs = %d/%d, want 6/1", sum.Events, sum.Bugs)
	}
	if sum.FinalVectors != 60 || sum.FinalPoints != 4 || sum.WallNS != 50 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.ByType[EvSpan] != 2 || sum.ByType[EvCheckpoint] != 1 {
		t.Errorf("by-type = %v", sum.ByType)
	}
}

func TestValidateTraceRejections(t *testing.T) {
	cases := []struct {
		name  string
		trace string
		want  string
	}{
		{"empty", "", "empty stream"},
		{"bad json", "{nope\n", "invalid JSON"},
		{"unknown type", `{"t_ns":0,"type":"campaign_start"}` + "\n" + `{"t_ns":1,"type":"warp_drive"}` + "\n", "unknown event type"},
		// The five flat types that repeated a span's payload are gone
		// from the schema; a trace that still carries one is rejected.
		{"retired type", `{"t_ns":0,"type":"campaign_start"}` + "\n" +
			`{"t_ns":1,"type":"solver_dispatch","graph":1,"outcome":"sat","span":"w0.i0.s0"}` + "\n" +
			`{"t_ns":2,"type":"campaign_end"}` + "\n", `unknown event type "solver_dispatch"`},
		{"bad first", `{"t_ns":0,"type":"checkpoint"}` + "\n", `first event is "checkpoint"`},
		{"time regress", `{"t_ns":5,"type":"campaign_start"}` + "\n" + `{"t_ns":4,"type":"campaign_end"}` + "\n", "timestamp regressed"},
		{"vector regress", `{"t_ns":0,"type":"campaign_start","vectors":10}` + "\n" + `{"t_ns":1,"type":"campaign_end","vectors":9}` + "\n", "vector count regressed"},
		{"no end", `{"t_ns":0,"type":"campaign_start"}` + "\n", `want "campaign_end"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ValidateTrace(strings.NewReader(c.trace))
			if err == nil {
				t.Fatal("accepted invalid trace")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestValidateTraceSkipsBlankLines(t *testing.T) {
	trace := `{"t_ns":0,"type":"campaign_start"}` + "\n\n" + `{"t_ns":1,"type":"campaign_end"}` + "\n"
	sum, err := ValidateTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 2 {
		t.Errorf("events = %d, want 2", sum.Events)
	}
}

// TestValidateEventsWallIsLatestTimestamp pins WallNS on a merged
// trace: lanes interleave, so the wall time is the largest timestamp,
// not the last event's.
func TestValidateEventsWallIsLatestTimestamp(t *testing.T) {
	sum, err := ValidateEvents([]Event{
		{TNS: 0, Type: EvCampaignStart},
		{TNS: 90, Type: EvCampaignEnd, Worker: 1},
		{TNS: 50, Type: EvCampaignEnd},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.WallNS != 90 || sum.Workers != 1 || sum.Events != 3 {
		t.Errorf("summary = %+v, want wall 90, 1 worker lane, 3 events", sum)
	}
}

// errWriter fails after n writes, exercising the tracer's sticky error.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, bytes.ErrTooLarge
	}
	w.n--
	return len(p), nil
}

func TestJSONLTracerStickyError(t *testing.T) {
	tr := NewJSONLTracer(&errWriter{n: 0})
	for i := 0; i < 64*1024; i++ { // overflow the 64KB buffer to force a flush
		tr.Emit(&Event{TNS: int64(i), Type: EvCheckpoint})
	}
	if err := tr.Close(); err == nil {
		t.Error("Close did not surface the write error")
	}
}
