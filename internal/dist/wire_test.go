package dist

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/smt"
)

var update = flag.Bool("update", false, "rewrite golden wire fixtures")

// goldenFixtures is one canonical request/response pair per /v1/*
// endpoint. Changing any serialized form breaks these files — which
// is the point: the wire format is a compatibility surface, and a
// change here must be deliberate and bump ProtoVersion.
func goldenFixtures() map[string]any {
	cw := CovWire{
		Nodes:  [][]int{{0, 1, 3}, {2}},
		Edges:  [][]int{{1, 4}, {}},
		Tuples: []string{"err|irq", "state|busy"},
	}
	return map[string]any{
		"join_request":  JoinRequest{Proto: ProtoVersion, WorkerID: "host-1234", RankHint: 1, Campaign: "nightly-mailbox"},
		"join_response": JoinResponse{Proto: ProtoVersion, CampaignID: "scmi_mailbox-w2-seed7", Spec: sampleSpec(), Batch: true},
		"lease_request": LeaseRequest{WorkerID: "host-1234", Rank: -1, Campaign: "nightly-mailbox"},
		"lease_response": LeaseResponse{
			Rank: 1, Seed: 7 + 0x9E3779B9, TTLMS: 5000,
		},
		"heartbeat_request":  HeartbeatRequest{WorkerID: "host-1234", Rank: 1, Vectors: 1500},
		"heartbeat_response": HeartbeatResponse{OK: true},
		"report_request": ReportRequest{
			WorkerID: "host-1234", Rank: 1,
			Report: core.Report{
				Vectors: 3000, Cycles: 3000, FinalPoints: 42,
				NodesCovered: 20, NodesTotal: 24, EdgesCovered: 18, EdgesTotal: 30,
				Bugs: []core.BugRecord{{
					Violation: props.Violation{Property: "mailbox_err_intr_en", CWE: "CWE-1234", Cycle: 812},
					Vectors:   812,
				}},
			},
			Coverage: cw,
			Events: []obs.Event{
				{TNS: 10, Type: "campaign_start", Worker: 2},
				{TNS: 42, Type: "span", Worker: 2, Vectors: 400, Span: "w2.i0.s2",
					Parent: "w2.i0.s1", Kind: "solve", Outcome: "sat", Cache: "miss", Restarts: 1},
				{TNS: 99, Type: "bug_found", Worker: 2, Vectors: 812, Property: "mailbox_err_intr_en"},
			},
		},
		"report_response": ReportResponse{OK: true, Done: true},
		"batch_request": BatchRequest{
			Campaign: "nightly-mailbox", WorkerID: "host-1234", Rank: 1,
			Publishes: []PublishDelta{
				{Seq: 3, Vectors: 1450, Delta: CovWire{Nodes: [][]int{{5}, {}}, Edges: [][]int{{7}, {}}}},
				{Seq: 4, Vectors: 1500, Delta: cw},
			},
			Stores: []CacheStore{{
				Key: PlanKeyWire{Graph: 2, To: 5, Ctx: 0xDEADBEEF},
				Stats: StatsWire{
					Outcome: "sat", Conflicts: 3, Decisions: 17, Propagations: 120,
					Restarts: 1, Clauses: 44, Vars: 18,
				},
			}},
		},
		"batch_response": BatchResponse{OK: true, AckSeq: 4, Resync: true},
		"error_response": ErrorResponse{Error: "protocol version mismatch: coordinator speaks v3, worker \"w\" speaks v4 — rebuild the worker from the same revision"},
	}
}

func sampleSpec() CampaignSpec {
	return CampaignSpec{
		Bench: "scmi_mailbox", Interval: 50, Threshold: 2, MaxVectors: 3000,
		Seed: 7, Workers: 2, UseSnapshots: true, ContinueAfterCoverage: true,
		Profile: true,
		Props:   []PropSpec{{Name: "extra", Expr: "err |-> en", DisableIff: "!rst_ni"}},
	}
}

// TestGoldenWireFixtures locks the JSON encoding of every endpoint's
// request and response against testdata/golden/. Regenerate with
// `go test ./internal/dist -run TestGoldenWireFixtures -update` after
// a deliberate protocol change (and bump ProtoVersion).
func TestGoldenWireFixtures(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	for name, v := range goldenFixtures() {
		path := filepath.Join(dir, name+".json")
		got, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = append(got, '\n')
		if *update {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to regenerate)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire encoding drifted from golden fixture:\ngot:  %s\nwant: %s\n(if deliberate: bump ProtoVersion and regenerate with -update)",
				name, got, want)
		}

		// Every fixture must also round-trip through its own type.
		rt := reflect.New(reflect.TypeOf(v))
		if err := json.Unmarshal(got, rt.Interface()); err != nil {
			t.Errorf("%s: fixture does not round-trip: %v", name, err)
		}
	}
}

// TestDroppedTraceFieldDecodes checks that a batch or report still
// carrying the "trace" object that batches and reports dropped within
// v6 decodes as the coordinator decodes it, to the same request: that
// is why the change kept the protocol version.
func TestDroppedTraceFieldDecodes(t *testing.T) {
	fixtures := goldenFixtures()
	for _, name := range []string{"batch_request", "report_request"} {
		want, err := json.Marshal(fixtures[name])
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(want, &fields); err != nil {
			t.Fatal(err)
		}
		fields["trace"] = json.RawMessage(`{"worker":2,"span":"w2"}`)
		old, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		got := reflect.New(reflect.TypeOf(fixtures[name]))
		if err := json.NewDecoder(bytes.NewReader(old)).Decode(got.Interface()); err != nil {
			t.Fatalf("%s with a trace field: %v", name, err)
		}
		if !reflect.DeepEqual(got.Elem().Interface(), fixtures[name]) {
			t.Errorf("%s with a trace field decodes to %+v", name, got.Elem().Interface())
		}
	}
}

// TestCovWireRoundTrip checks coverage serialization: wire form is
// canonical (sorted), and decode(encode(x)) preserves the sets.
func TestCovWireRoundTrip(t *testing.T) {
	c := &cov.CFGCov{
		NodesSeen: []map[int]bool{{3: true, 0: true, 7: true}, {}},
		EdgesSeen: []map[int]bool{{5: true, 1: true}, {2: true}},
		Tuples:    map[string]bool{"b|c": true, "a|b": true},
	}
	w := CovToWire(c)
	if !reflect.DeepEqual(w.Nodes[0], []int{0, 3, 7}) {
		t.Fatalf("nodes not sorted: %v", w.Nodes[0])
	}
	if !reflect.DeepEqual(w.Tuples, []string{"a|b", "b|c"}) {
		t.Fatalf("tuples not sorted: %v", w.Tuples)
	}
	back := CovFromWire(w)
	if !reflect.DeepEqual(back.NodesSeen, c.NodesSeen) ||
		!reflect.DeepEqual(back.EdgesSeen, c.EdgesSeen) ||
		!reflect.DeepEqual(back.Tuples, c.Tuples) {
		t.Fatalf("coverage round trip lost data:\n%+v\n%+v", back, c)
	}
	// Canonical form: two encodes of equal coverage are byte-equal.
	a, _ := json.Marshal(CovToWire(c))
	b, _ := json.Marshal(CovToWire(back))
	if !bytes.Equal(a, b) {
		t.Fatal("equal coverage produced different wire bytes")
	}
}

// TestStatsToWire checks the solve record a rank ships: every
// statistic the coordinator meters survives the conversion, and the
// outcome reads as the solver's own string for sat and unsat alike.
func TestStatsToWire(t *testing.T) {
	st := smt.SolveStats{
		Outcome: smt.Sat, Conflicts: 2, Decisions: 9, Propagations: 40,
		Restarts: 3, Clauses: 12, Vars: 6, BlastNS: 111, SolveNS: 222,
	}
	want := StatsWire{
		Outcome: "sat", Conflicts: 2, Decisions: 9, Propagations: 40,
		Restarts: 3, Clauses: 12, Vars: 6, BlastNS: 111, SolveNS: 222,
	}
	if got := statsToWire(st); got != want {
		t.Fatalf("statsToWire = %+v, want %+v", got, want)
	}
	if got := statsToWire(smt.SolveStats{Outcome: smt.Unsat}).Outcome; got != smt.Unsat.String() {
		t.Fatalf("unsat outcome = %q, want %q", got, smt.Unsat.String())
	}
}
