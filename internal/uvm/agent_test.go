package uvm

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/simc"
)

// setLog records the signals written through it, in order.
type setLog struct {
	sim.DUV
	sets []string
}

func (l *setLog) Set(sig int, v logic.BV) {
	l.sets = append(l.sets, l.Design().Signals[sig].Name)
	l.DUV.Set(sig, v)
}

// TestDriverAppliesPortsInSortedOrder checks that Apply drives an
// item's fields in sorted name order, and that a field matching no
// port fails the item after exactly the fields sorted before it.
func TestDriverAppliesPortsInSortedOrder(t *testing.T) {
	d := mkDesign(t, duvSrc, "duv")
	m, err := simc.New(d)
	if err != nil {
		t.Fatal(err)
	}
	log := &setLog{DUV: m}
	drv := NewDriver("driver", log, -1)
	v := logic.FromUint64(8, 3)
	cases := []struct {
		fields  []string
		want    []string
		unknown string
	}{
		{[]string{"op", "data", "rst_ni"}, []string{"data", "op", "rst_ni"}, ""},
		{[]string{"op", "data", "bogus"}, nil, "bogus"},
		{[]string{"op", "data", "extra"}, []string{"data"}, "extra"},
		{[]string{"op", "zz", "data", "yy"}, []string{"data", "op"}, "yy"},
	}
	for _, tc := range cases {
		it := &Item{Fields: map[string]logic.BV{}}
		for _, f := range tc.fields {
			it.Fields[f] = v
		}
		log.sets = nil
		err := drv.Apply(it)
		if !reflect.DeepEqual(log.sets, tc.want) {
			t.Errorf("fields %v: set %v, want %v", tc.fields, log.sets, tc.want)
		}
		wantErr := ""
		if tc.unknown != "" {
			wantErr = fmt.Sprintf("uvm: item field %q does not match an input port", tc.unknown)
		}
		if gotErr := fmt.Sprint(err); err != nil && gotErr != wantErr || err == nil && wantErr != "" {
			t.Errorf("fields %v: error %v, want %q", tc.fields, err, wantErr)
		}
	}
}

// TestDriverApplyDoesNotAllocate pins the precomputed port order: on
// the compiled backend, driving an item allocates nothing.
func TestDriverApplyDoesNotAllocate(t *testing.T) {
	d := mkDesign(t, duvSrc, "duv")
	m, err := simc.New(d)
	if err != nil {
		t.Fatal(err)
	}
	info := sim.DetectClockReset(d)
	if err := m.ApplyReset(info, 2); err != nil {
		t.Fatal(err)
	}
	drv := NewDriver("driver", m, info.Clock)
	it := &Item{Fields: map[string]logic.BV{
		"op":   logic.FromUint64(4, 1),
		"data": logic.FromUint64(8, 5),
	}}
	if err := drv.Apply(it); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := drv.Apply(it); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Apply allocates %.1f times", allocs)
	}
	if got, ok := m.Get(m.SignalIndex("acc")).Uint64(); !ok || got != 5*102%256 {
		t.Errorf("acc = %d (known %v), want %d", got, ok, 5*102%256)
	}
}

// TestMonitorSampleReusesValues checks that the monitor observes every
// output as Get reads it, and that sampling outputs that hold still
// allocates nothing.
func TestMonitorSampleReusesValues(t *testing.T) {
	d := mkDesign(t, duvSrc, "duv")
	m, err := simc.New(d)
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor("monitor", m, nil)
	info := sim.DetectClockReset(d)
	if err := m.ApplyReset(info, 2); err != nil {
		t.Fatal(err)
	}
	drv := NewDriver("driver", m, info.Clock)
	acc := m.SignalIndex("acc")
	for k := uint64(1); k <= 4; k++ {
		it := &Item{Fields: map[string]logic.BV{"op": logic.FromUint64(4, 1), "data": logic.FromUint64(8, k)}}
		if err := drv.Apply(it); err != nil {
			t.Fatal(err)
		}
		if got, want := mon.Observations["acc"], m.Get(acc); !got.Eq4(want) {
			t.Fatalf("item %d: observed acc %v, want %v", k, got, want)
		}
	}
	if got, _ := mon.Observations["acc"].Uint64(); got != 10 {
		t.Fatalf("acc = %d, want 10", got)
	}
	allocs := testing.AllocsPerRun(100, mon.sample)
	if allocs != 0 {
		t.Errorf("sample of unchanged outputs allocates %.1f times", allocs)
	}
}

// TestScoreboardWindow checks the Cap-bounded window: after every
// Observe it holds exactly the newest Cap samples in order, and once
// warm a full scoreboard records without allocating.
func TestScoreboardWindow(t *testing.T) {
	s := NewScoreboard("sb")
	s.Cap = 5
	v := logic.FromUint64(8, 1)
	for c := uint64(0); c < 40; c++ {
		s.Observe("o", c, v)
		var got, want []uint64
		for _, o := range s.Observations {
			got = append(got, o.Cycle)
		}
		for w := max(int64(c)-int64(s.Cap)+1, 0); w <= int64(c); w++ {
			want = append(want, uint64(w))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after cycle %d: window %v, want %v", c, got, want)
		}
	}
	// A window slide reallocates only every few samples, so each run
	// observes many.
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 50; i++ {
			s.Observe("o", 99, v)
		}
	})
	if allocs != 0 {
		t.Errorf("Observe on a full scoreboard allocates %.1f times", allocs)
	}
}
