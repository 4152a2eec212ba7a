package simc

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/logic"
	"repro/internal/sim"
)

// chainSrc chains three combinational processes, each with a branch,
// so the branch-event stream spells out the order the scheduler runs
// them in. A write to a or b queues several of them at once, and the
// register q feeds back into the chain after every clock edge.
const chainSrc = `
module chain (input clk_i, input rst_ni, input [3:0] a, input [3:0] b,
  output reg [3:0] q, output [3:0] y);
  logic [3:0] c1, c2, c3;
  always_comb begin : p1
    if (a[0]) c1 = a + q;
    else c1 = b;
  end
  always_comb begin : p2
    if (c1[1]) c2 = c1 ^ b;
    else c2 = c1 + 4'd1;
  end
  always_comb begin : p3
    case (c2[1:0])
      2'd0: c3 = c2;
      2'd1: c3 = a;
      default: c3 = c1;
    endcase
  end
  assign y = c3 & b;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) q <= 4'd0;
    else if (c3[0]) q <= q + 4'd1;
    else q <= c2;
  end
endmodule`

func elaborateChain(t *testing.T) *elab.Design {
	t.Helper()
	src, err := hdl.Parse(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(src, "chain", nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

type eventLog struct{ ev [][2]int }

func (l *eventLog) Branch(id, arm int) { l.ev = append(l.ev, [2]int{id, arm}) }

// TestSchedulerFIFOOrderMatchesInterpreter drives the machine and the
// interpreter in lock step through settles that drain the queue, clock
// ticks, and restores that discard writes still queued. The branch-event
// stream, and so the order processes ran in, must match throughout, as
// must every signal value.
func TestSchedulerFIFOOrderMatchesInterpreter(t *testing.T) {
	d := elaborateChain(t)
	ref, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	var refLog, mLog eventLog
	ref.SetTracer(&refLog)
	m.SetTracer(&mLog)
	backends := []sim.DUV{ref, m}
	info := sim.DetectClockReset(d)
	for _, s := range backends {
		if err := s.ApplyReset(info, 2); err != nil {
			t.Fatal(err)
		}
	}
	a, b := m.SignalIndex("a"), m.SignalIndex("b")
	rng := rand.New(rand.NewSource(1))
	snaps := make([]*sim.Snapshot, len(backends))
	restores := 0
	for step := 0; step < 300; step++ {
		va, vb := logic.FromUint64(4, rng.Uint64()), logic.FromUint64(4, rng.Uint64())
		op := rng.Intn(6)
		for i, s := range backends {
			switch {
			case op == 0:
				snaps[i] = s.Snapshot()
			case op == 1 && snaps[i] != nil:
				// The write's processes are still queued when Restore
				// discards them.
				s.Set(a, vb)
				s.Set(b, va)
				s.Restore(snaps[i])
				if s == m {
					restores++
					if m.qhead != 0 || len(m.queue) != 0 || len(m.pendEdges) != 0 {
						t.Fatalf("step %d: Restore left queue %v from %d, edges %v", step, m.queue, m.qhead, m.pendEdges)
					}
				}
			}
			s.Set(a, va)
			s.Set(b, vb)
			if err := s.Settle(); err != nil {
				t.Fatal(err)
			}
			if op%2 == 0 {
				if err := s.Tick(info.Clock); err != nil {
					t.Fatal(err)
				}
			}
		}
		if m.qhead != 0 || len(m.queue) != 0 {
			t.Fatalf("step %d: drained queue not reset: %v from %d", step, m.queue, m.qhead)
		}
		if !reflect.DeepEqual(mLog.ev, refLog.ev) {
			t.Fatalf("step %d: branch events\n got %v\nwant %v", step, mLog.ev, refLog.ev)
		}
		for sig := range d.Signals {
			if got, want := m.Get(sig), ref.Get(sig); !got.Eq4(want) {
				t.Fatalf("step %d: %s = %v, want %v", step, d.Signals[sig].Name, got, want)
			}
		}
		mLog.ev, refLog.ev = mLog.ev[:0], refLog.ev[:0]
	}
	if restores == 0 {
		t.Fatal("no restore exercised")
	}
}

type eventCount struct{ n int }

func (c *eventCount) Branch(int, int) { c.n++ }

// TestTickSteadyStateDoesNotAllocate pins the scheduler's buffer reuse:
// once warm, a clock cycle that re-runs combinational and sequential
// processes allocates nothing. The chain design ticks with constant
// inputs; the SoC gets a fresh prebuilt random vector on every input
// before each cycle, as a campaign drives it.
func TestTickSteadyStateDoesNotAllocate(t *testing.T) {
	soc, ok := designs.FindBenchmark("opentitan_mini")
	if !ok {
		t.Fatal("opentitan_mini missing")
	}
	socD, err := soc.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		d      *elab.Design
		random bool
	}{{"chain", elaborateChain(t), false}, {"opentitan_mini", socD, true}} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.d)
			if err != nil {
				t.Fatal(err)
			}
			var events eventCount
			m.SetTracer(&events)
			info := sim.DetectClockReset(tc.d)
			if err := m.ApplyReset(info, 2); err != nil {
				t.Fatal(err)
			}
			var inputs []int
			var vecs [][]logic.BV
			if tc.random {
				for _, s := range tc.d.InputSignals() {
					if s.Index != info.Clock && s.Index != info.Reset {
						inputs = append(inputs, s.Index)
					}
				}
				rng := rand.New(rand.NewSource(1))
				vecs = make([][]logic.BV, 32)
				for i := range vecs {
					for _, sig := range inputs {
						vecs[i] = append(vecs[i], logic.Rand(tc.d.Signals[sig].Width, rng.Uint64))
					}
				}
			} else {
				m.Set(m.SignalIndex("a"), logic.FromUint64(4, 5))
				m.Set(m.SignalIndex("b"), logic.FromUint64(4, 9))
			}
			step := 0
			cycle := func() {
				if vecs != nil {
					for j, sig := range inputs {
						m.Set(sig, vecs[step%len(vecs)][j])
					}
					step++
					if err := m.Settle(); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.Tick(info.Clock); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2*len(vecs)+8; i++ {
				cycle()
			}
			n := events.n
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Errorf("steady-state Tick allocates %.1f times", allocs)
			}
			if events.n == n {
				t.Fatal("the ticks ran no process")
			}
		})
	}
}

// TestWordsAliasesArena checks Words against Get: the planes hold the
// current value and track the next write in place.
func TestWordsAliasesArena(t *testing.T) {
	d := elaborateChain(t)
	m, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	a := m.SignalIndex("a")
	m.Set(a, logic.FromUint64(4, 6))
	wa, wb := m.Words(a)
	if got := logic.FromWords(4, wa, wb); !got.Eq4(m.Get(a)) {
		t.Fatalf("Words = %v, Get = %v", got, m.Get(a))
	}
	m.Set(a, logic.X(4))
	if wa[0] != 0xf || wb[0] != 0xf {
		t.Fatalf("after writing X: words %x/%x, want f/f", wa[0], wb[0])
	}
}
